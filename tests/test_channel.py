"""Tests for attack channels, conjugate rewriting and error statistics."""

import numpy as np
import pytest

import reference
from oracle import bob_conjugate_state
from mubeve.channel import (
    AttackChannel,
    ErrorDistribution,
    _conjugate_kraus,
    eve_state,
    from_unitary,
    xor_error_distribution,
)
from mubeve.errors import (
    DimensionMismatchError,
    InvalidArrayError,
    NotADistributionError,
    NotUnitaryError,
    OutOfRangeError,
)
from mubeve.linalg import mub_transform
from mubeve.zoo import AttackSpec, make_attack, random_attack


def cnot_probe_unitary():
    """Joint unitary copying the system qubit into a 2-dim apparatus.

    Index convention: apparatus owns the most significant bit, so the
    joint basis index is e*2 + a and the map is (e, a) -> (e XOR a, a).
    """
    u = np.zeros((4, 4), dtype=complex)
    for e in range(2):
        for a in range(2):
            u[(e ^ a) * 2 + a, e * 2 + a] = 1.0
    return u


class TestFromUnitary:
    def test_identity_attack(self):
        u = np.eye(4, dtype=complex)
        ch = from_unitary(u, [1.0, 0.0], 1)
        assert ch.eve_dim == 2
        for i in range(2):
            for j in range(2):
                expected = np.array([1.0, 0.0]) if i == j else np.zeros(2)
                assert np.allclose(ch.kraus[i, j], expected)

    def test_cnot_probe_by_hand(self):
        ch = from_unitary(cnot_probe_unitary(), [1.0, 0.0], 1)
        assert np.allclose(ch.kraus[0, 0], [1.0, 0.0])
        assert np.allclose(ch.kraus[1, 1], [0.0, 1.0])
        assert np.allclose(ch.kraus[0, 1], 0.0)
        assert np.allclose(ch.kraus[1, 0], 0.0)

    def test_non_unitary_rejected(self):
        with pytest.raises(NotUnitaryError):
            from_unitary(np.ones((4, 4)), [1.0, 0.0], 1)

    def test_bad_dimensions_rejected(self):
        with pytest.raises(DimensionMismatchError):
            from_unitary(np.eye(5), [1.0, 0.0], 1)  # not a multiple of 2
        with pytest.raises(DimensionMismatchError):
            from_unitary(np.eye(4), [1.0, 0.0, 0.0], 1)  # ancilla length
        with pytest.raises(DimensionMismatchError) as err:
            from_unitary(np.ones((2, 4)), [1.0, 0.0], 1)
        assert str(err.value) == "unitary must be square"

    def test_unnormalized_ancilla_rejected(self):
        with pytest.raises(NotUnitaryError):
            from_unitary(np.eye(4), [1.0, 1.0], 1)

    @pytest.mark.parametrize("where", ["unitary", "ancilla"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e200])
    def test_non_finite_or_huge_entries_rejected(self, where, value):
        # NaN fails no comparison, so it would pass the norm and residual
        # checks; inf and 1e200 would warn inside the residual's product
        u, ancilla = np.eye(4, dtype=complex), np.array([1.0, 0.0], dtype=complex)
        (u if where == "unitary" else ancilla)[-1] = value
        with pytest.raises(NotUnitaryError, match="entries must be finite"):
            from_unitary(u, ancilla, 1)

    def test_matches_direct_table(self):
        # the same attack built from its unitary and from its table agree
        direct = make_attack(AttackSpec("cnot_probe", 1))
        lifted = from_unitary(cnot_probe_unitary(), [1.0, 0.0], 1)
        assert np.max(np.abs(direct.kraus - lifted.kraus)) < 1e-15


def to_conjugate_basis(ch):
    """The same interaction in the conjugate encoding basis, through the
    package's ``_conjugate_kraus``: an involution that preserves
    unitarity, which ``AttackChannel`` checks."""
    return AttackChannel(ch.n, ch.eve_dim, _conjugate_kraus(ch.n, ch.kraus))


class TestConjugateBasis:
    def test_involution(self):
        for seed in range(6):
            ch = random_attack(2, 2, seed)
            back = to_conjugate_basis(to_conjugate_basis(ch))
            assert np.max(np.abs(back.kraus - ch.kraus)) <= 1e-12

    def test_identity_stays_identity(self):
        ch = make_attack(AttackSpec("identity", 1))
        conj = to_conjugate_basis(ch)
        assert np.allclose(conj.kraus[0, 0], [1.0])
        assert np.allclose(conj.kraus[1, 1], [1.0])
        assert np.allclose(conj.kraus[0, 1], [0.0])

    def test_cnot_four_term_sum(self):
        # expanding the sum by hand gives (|0> + (-1)**(l^s) |1>) / 2
        conj = to_conjugate_basis(make_attack(AttackSpec("cnot_probe", 1)))
        for l in range(2):
            for s in range(2):
                expected = 0.5 * np.array([1.0, (-1.0) ** (l ^ s)])
                assert np.max(np.abs(conj.kraus[l, s] - expected)) < 1e-15

    def test_matrix_route_cross_check(self):
        # independent route: conjugate the isometry slice by the basis
        # change on both system sides
        for seed in (3, 4):
            for n, de in ((1, 3), (2, 2)):
                ch = random_attack(n, de, seed)
                d = 1 << n
                v = np.zeros((de * d, d), dtype=complex)
                for i in range(d):
                    for j in range(d):
                        v[np.arange(de) * d + j, i] = ch.kraus[i, j]
                h = mub_transform(n)
                w = np.kron(np.eye(de), h) @ v @ h
                conj = to_conjugate_basis(ch)
                for l in range(d):
                    for s in range(d):
                        assert np.max(np.abs(
                            conj.kraus[l, s] - w[np.arange(de) * d + s, l]
                        )) < 1e-12

    def test_unitarity_preserved(self):
        for seed in range(4):
            conj = to_conjugate_basis(random_attack(1, 4, seed))
            k = conj.kraus
            gram = np.einsum("ijd,kjd->ik", k.conj(), k)
            assert np.max(np.abs(gram - np.eye(2))) <= 1e-9


class TestEveState:
    def test_identity(self):
        ch = make_attack(AttackSpec("identity", 2))
        for i in range(4):
            assert np.allclose(eve_state(ch, i).matrix, [[1.0]])

    def test_cnot_pointers(self):
        ch = make_attack(AttackSpec("cnot_probe", 1))
        assert np.allclose(eve_state(ch, 0).matrix, np.diag([1.0, 0.0]))
        assert np.allclose(eve_state(ch, 1).matrix, np.diag([0.0, 1.0]))

    def test_probe_overlap_angle(self):
        theta = 0.7
        ch = make_attack(AttackSpec("probe_overlap", 1, params=(theta,)))
        r0 = eve_state(ch, 0).matrix
        r1 = eve_state(ch, 1).matrix
        overlap_sq = np.trace(r0 @ r1).real
        assert overlap_sq == pytest.approx(np.cos(theta) ** 2, abs=1e-12)

    def test_total_trace(self):
        for seed in (0, 5):
            ch = random_attack(2, 3, seed)
            total = sum(
                np.trace(eve_state(ch, i).matrix).real for i in range(4)
            )
            assert abs(total - 4.0) <= 1e-9

    @pytest.mark.parametrize("n, eve_dim", [(1, 2), (3, 2), (2, 3), (1, 256)])
    def test_stack_equals_validated_states(self, n, eve_dim):
        # the checker's stack of apparatus states, bit for bit
        ch = random_attack(n, eve_dim, 17)
        stack = reference._states(ch.kraus)
        assert stack.shape == (ch.dim, eve_dim, eve_dim)
        for i in range(ch.dim):
            assert np.array_equal(stack[i], eve_state(ch, i).matrix)

    @pytest.mark.parametrize("i", [1.7, "1"])
    def test_index_must_be_an_integer(self, i):
        # neither is read as the input string 1
        ch = make_attack(AttackSpec("cnot_probe", 1))
        with pytest.raises(OutOfRangeError, match="not an integer"):
            eve_state(ch, i)
        assert np.array_equal(eve_state(ch, np.int64(1)).matrix, eve_state(ch, 1).matrix)


class TestBobConjugateState:
    def test_identity_no_disturbance(self):
        ch = make_attack(AttackSpec("identity", 1))
        h = mub_transform(1)
        for i in range(2):
            expected = np.outer(h[:, i], h[:, i])
            assert np.max(np.abs(bob_conjugate_state(ch.kraus, i) - expected)) < 1e-12

    def test_phase_conversion_flips(self):
        ch = make_attack(AttackSpec("phase_conversion", 1))
        h = mub_transform(1)
        flipped = np.outer(h[:, 1], h[:, 1])
        assert np.max(np.abs(bob_conjugate_state(ch.kraus, 0) - flipped)) < 1e-12

    def test_random_attack_unit_trace(self):
        for seed in range(5):
            ch = random_attack(1, 2, seed)
            for i in range(2):
                tr = np.trace(bob_conjugate_state(ch.kraus, i)).real
                assert abs(tr - 1.0) <= 1e-10

    def test_conjugate_diagonal_matches_outcome_probabilities(self):
        ch = random_attack(1, 2, 17)
        kbar = to_conjugate_basis(ch).kraus
        h = mub_transform(1)
        for i in range(2):
            rho = bob_conjugate_state(ch.kraus, i)
            back = h @ rho @ h  # back to conjugate components
            for j in range(2):
                assert back[j, j].real == pytest.approx(
                    float(np.sum(np.abs(kbar[i, j]) ** 2)), abs=1e-12
                )


class TestXorErrorDistribution:
    def test_identity(self):
        ed = xor_error_distribution(make_attack(AttackSpec("identity", 2)))
        assert np.allclose(ed.probs, [1.0, 0.0, 0.0, 0.0])
        assert ed.delta == 0.0

    def test_phase_conversion(self):
        ed = xor_error_distribution(make_attack(AttackSpec("phase_conversion", 1)))
        assert np.allclose(ed.probs, [0.0, 1.0])
        assert ed.delta == pytest.approx(1.0, abs=1e-15)

    def test_intercept_resend(self):
        ed = xor_error_distribution(make_attack(AttackSpec("intercept_resend", 1)))
        assert np.allclose(ed.probs, [0.5, 0.5])

    def test_normalization_on_random_ensemble(self):
        count = 0
        for n in (1, 2):
            for de in (1, 2, 4):
                for k in range(17):
                    ed = xor_error_distribution(random_attack(n, de, 1000 + count))
                    assert abs(float(ed.probs.sum()) - 1.0) <= 1e-9
                    count += 1
        assert count >= 100


class TestTypes:
    @pytest.mark.parametrize("build, what", [
        (lambda: AttackChannel(1, 1, "abc"), "kraus table"),
        (lambda: AttackChannel(1, 1, [[[1.0], [0.0]], [[0.0]]]), "kraus table"),
        (lambda: ErrorDistribution(1, ["a", "b"]), "error probabilities"),
        (lambda: ErrorDistribution(1, [10**400, 0]), "error probabilities"),
        (lambda: from_unitary("ab", [1], 1), "unitary"),
        (lambda: from_unitary(np.eye(2), ["x"], 1), "ancilla"),
        # numeric text, which numpy read as numbers ("1" as 1)
        (lambda: AttackChannel(1, 1, [[["1"], ["0"]], [["0"], ["1j"]]]), "kraus table"),
        (lambda: ErrorDistribution(1, ["1", "0"]), "error probabilities"),
        (lambda: ErrorDistribution(1, np.array([b"1", b"0"])), "error probabilities"),
        (lambda: from_unitary([["1", "0"], ["0", "1"]], [1], 1), "unitary"),
        (lambda: from_unitary(np.eye(2), ["1"], 1), "ancilla"),
    ], ids=["channel-string", "channel-ragged", "distribution-strings",
            "distribution-huge-int", "unitary-string", "ancilla-string",
            "channel-numeric-text", "distribution-numeric-text", "distribution-bytes",
            "unitary-numeric-text", "ancilla-numeric-text"])
    def test_unreadable_arrays_are_named(self, build, what):
        # numpy raised a bare ValueError or OverflowError for each of these
        with pytest.raises(InvalidArrayError) as err:
            build()
        assert str(err.value) == f"{what} is not a rectangular array of numbers"

    def test_channel_rejects_nonunitary_table(self):
        kraus = np.zeros((2, 2, 1), dtype=complex)
        kraus[0, 0, 0] = 1.0
        kraus[1, 1, 0] = 0.5  # row 1 norm broken
        with pytest.raises(NotUnitaryError):
            AttackChannel(n=1, eve_dim=1, kraus=kraus)

    @pytest.mark.parametrize("n, eve_dim", [(2.5, 1), (1, 2.0), ("1", 1)])
    def test_channel_sizes_must_be_integers(self, n, eve_dim):
        kraus = make_attack(AttackSpec("identity", 1)).kraus
        with pytest.raises(OutOfRangeError, match="not an integer"):
            AttackChannel(n=n, eve_dim=eve_dim, kraus=kraus)

    @pytest.mark.parametrize("n, eve_dim", [(0, 1), (1, 0), (-1, 1)])
    def test_channel_sizes_must_be_positive(self, n, eve_dim):
        kraus = make_attack(AttackSpec("identity", 1)).kraus
        with pytest.raises(DimensionMismatchError) as err:
            AttackChannel(n=n, eve_dim=eve_dim, kraus=kraus)
        assert str(err.value) == "n and eve_dim must be positive"

    @pytest.mark.parametrize("n, error", [(2.5, OutOfRangeError), (-1, DimensionMismatchError)])
    def test_from_unitary_qubit_count_checked(self, n, error):
        # not a TypeError or ValueError from the shift 1 << n
        with pytest.raises(error):
            from_unitary(np.eye(4), [1.0, 0.0], n)

    def test_channel_rejects_nan_table(self):
        with pytest.raises(NotUnitaryError):
            AttackChannel(n=1, eve_dim=1, kraus=np.full((2, 2, 1), np.nan))

    def test_error_distribution_invariants(self):
        with pytest.raises(NotADistributionError):
            ErrorDistribution(1, [0.7, 0.7])
        with pytest.raises(NotADistributionError):
            ErrorDistribution(1, [1.5, -0.5])
        with pytest.raises(DimensionMismatchError):
            ErrorDistribution(2, [1.0, 0.0])

    @pytest.mark.parametrize("p", [[np.nan, np.nan], [np.nan, 1.0]])
    def test_error_distribution_rejects_non_finite(self, p):
        with pytest.raises(NotADistributionError):
            ErrorDistribution(1, p)
