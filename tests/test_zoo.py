"""Tests for the built-in attack constructors."""

import math

import numpy as np
import pytest

import mubeve.rng as rng
import mubeve.zoo as zoo
import reference
from mubeve.bounds import audit_attack, xor_entropy_bound
from mubeve.channel import from_unitary, xor_error_distribution
from mubeve.errors import (
    DependentColumnsError,
    DimensionTooLargeError,
    OutOfRangeError,
    UnsupportedCombinationError,
)
from mubeve.linalg import MAX_TOTAL_DIM, N_MAX
from mubeve.rng import SplitMix64, random_unitary
from mubeve.zoo import (
    KIND_FIELDS,
    KINDS,
    AttackSpec,
    check_cell,
    make_attack,
    random_attack,
)


def binary_entropy(p):
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def unitarity_residual(ch):
    gram = np.einsum("ijd,kjd->ik", ch.kraus.conj(), ch.kraus)
    return float(np.max(np.abs(gram - np.eye(ch.dim))))


class TestAttackSpec:
    def test_unknown_kind(self):
        with pytest.raises(UnsupportedCombinationError):
            AttackSpec("teleport", 1)

    @pytest.mark.parametrize("kind", [[1], {}, None, 1], ids=["list", "dict", "none", "int"])
    def test_non_string_kind_is_unknown(self, kind):
        # an unhashable kind raised a bare TypeError from the KINDS lookup
        with pytest.raises(UnsupportedCombinationError) as err:
            AttackSpec(kind, 1)
        assert str(err.value) == f"unknown attack kind {kind!r}"

    def test_param_arity(self):
        with pytest.raises(OutOfRangeError):
            AttackSpec("probe_overlap", 1)  # angle missing
        with pytest.raises(OutOfRangeError):
            AttackSpec("identity", 1, params=(0.1,))

    def test_qubit_range(self):
        with pytest.raises(OutOfRangeError):
            AttackSpec("identity", 0)
        with pytest.raises(OutOfRangeError):
            AttackSpec("identity", N_MAX + 1)

    @pytest.mark.parametrize("kind", [k for k in KINDS if k != "random_unitary"])
    @pytest.mark.parametrize("field", [{"eve_dim": 0}, {"eve_dim": 2}, {"seed": 3}],
                             ids=["eve_dim0", "eve_dim2", "seed3"])
    def test_named_kinds_reject_eve_dim_and_seed(self, kind, field):
        # the named kinds build their own apparatus and would ignore them
        params = (0.3,) * KINDS[kind][0]
        with pytest.raises(UnsupportedCombinationError, match="random_unitary"):
            AttackSpec(kind, 1, params=params, **field)
        assert AttackSpec(kind, 1, params=params, eve_dim=1, seed=0).eve_dim == 1

    @pytest.mark.parametrize("seed", [-1, 2.5, 2**64, "3"])
    def test_seed_checked_at_construction(self, seed):
        # the stream would reject it only when make_attack builds the channel
        with pytest.raises(OutOfRangeError, match="seed"):
            AttackSpec("random_unitary", 1, eve_dim=2, seed=seed)

    @pytest.mark.parametrize("param", [math.nan, math.inf, -math.inf, "x", "0.5",
                                       None, 10**400])
    def test_params_must_be_finite_reals(self, param):
        # NaN would fail later as NotUnitaryError, "x" as a raw ValueError
        with pytest.raises(OutOfRangeError, match="finite real"):
            AttackSpec("probe_overlap", 1, params=(param,))

    def test_params_become_floats(self):
        spec = AttackSpec("probe_overlap", 1, params=[np.float32(0.5)])
        assert spec.params == (0.5,) and type(spec.params[0]) is float
        assert AttackSpec("probe_overlap", 1, params=(1,)).params == (1.0,)

    def test_eve_dim_checked_for_random_unitary(self):
        with pytest.raises(OutOfRangeError):
            AttackSpec("random_unitary", 1, eve_dim=0)
        with pytest.raises(DimensionTooLargeError):
            AttackSpec("random_unitary", N_MAX, eve_dim=2 * (MAX_TOTAL_DIM >> N_MAX))


class TestCheckCell:
    """One rule for the (qubit count, apparatus dimension) limits, with one
    exception type per violated limit wherever a cell enters."""

    @pytest.mark.parametrize("n, eve_dim", [(1, 1), (4, 32), (1, 256), (3, 64)])
    def test_accepts_limit_cells(self, n, eve_dim):
        check_cell(n, eve_dim)

    # ids that name no limit, so a change of the limits renames no test
    @pytest.mark.parametrize("n, eve_dim, error", [
        (0, 1, OutOfRangeError),
        pytest.param(N_MAX + 1, 1, OutOfRangeError, id="above-cap"),
        (-1, 1, OutOfRangeError),
        (1, 0, OutOfRangeError),
        # the first apparatus sizes over the total-dimension limit
        pytest.param(N_MAX, (MAX_TOTAL_DIM >> N_MAX) + 1, DimensionTooLargeError,
                     id="cap-total-above-limit"),
        pytest.param(1, MAX_TOTAL_DIM // 2 + 1, DimensionTooLargeError,
                     id="one-qubit-total-above-limit"),
        # a float would pass the range checks and fail later as a TypeError
        (1, 2.5, OutOfRangeError),
        (1.0, 2, OutOfRangeError),
    ])
    def test_rejects(self, n, eve_dim, error):
        for check in (check_cell, lambda n, d: random_attack(n, d, 0),
                      lambda n, d: AttackSpec("random_unitary", n, eve_dim=d)):
            with pytest.raises(error):
                check(n, eve_dim)

    @pytest.mark.parametrize("kind, n", [
        (kind, n) for kind in KINDS for n in (1, 2, 3, 4)
        if kind != "probe_overlap" or n == 1
    ])
    def test_kind_builds_its_declared_apparatus(self, kind, n):
        # the apparatus is the width of the row's pointer table, whose row i
        # sits on the diagonal for input i, or eve_dim for the drawn kind
        entry = KINDS[kind]
        spec = AttackSpec(kind, n, params=(0.3,) * entry.arity,
                          **({"eve_dim": 3} if entry.pointers is None else {}))
        ch = make_attack(spec)
        if entry.pointers is None:
            assert ch.eve_dim == spec.eve_dim
            return
        table, d = entry.pointers(n, spec.params), 1 << n
        assert ch.eve_dim == table.shape[1]
        assert np.array_equal(ch.kraus[np.arange(d), np.arange(d)], table)
        assert not ch.kraus[~np.eye(d, dtype=bool)].any()

    @pytest.mark.parametrize("kind", ["intercept_resend", "cnot_probe"])
    def test_pointer_kinds_checked_at_their_apparatus_size(self, kind):
        # a pointer kind keeps a 2**n apparatus: at the first n with 4**n >
        # MAX_TOTAL_DIM (5, a 32 x 32 = 1024 table, at a limit of 512) the
        # table is too large, though N_MAX admits n, and so on up to N_MAX
        for n in (N_MAX // 2 + 1, N_MAX):
            AttackSpec("identity", n)
            with pytest.raises(DimensionTooLargeError, match=str(4**n)):
                AttackSpec(kind, n)

    def test_every_kind_has_an_arity_and_a_note(self):
        for kind in KINDS.values():
            assert kind.arity in (0, 1) and kind.note
            # a drawn kind, and only a drawn kind, takes the KIND_FIELDS
            drawn = kind.pointers is None
            assert ("fields: " + ", ".join(KIND_FIELDS) in kind.note) == drawn


class TestMakeAttack:
    def test_checked_spec_is_not_checked_again(self, monkeypatch):
        spec = AttackSpec("random_unitary", 3, eve_dim=2, seed=5)

        def no_check(*cell):
            raise AssertionError(f"cell {cell} checked again")

        monkeypatch.setattr(zoo, "check_cell", no_check)
        ch = make_attack(spec)
        monkeypatch.undo()
        assert np.array_equal(ch.kraus, random_attack(3, 2, 5).kraus)

    def test_every_kind_is_unitary(self):
        specs = [
            AttackSpec("identity", 2),
            AttackSpec("phase_conversion", 2),
            AttackSpec("intercept_resend", 2),
            AttackSpec("cnot_probe", 2),
            AttackSpec("probe_overlap", 1, params=(0.4,)),
            AttackSpec("random_unitary", 2, eve_dim=3, seed=11),
        ]
        assert {s.kind for s in specs} == set(KINDS)
        for spec in specs:
            assert unitarity_residual(make_attack(spec)) <= 1e-9

    def test_identity_audit_all_zero(self):
        rep = audit_attack(make_attack(AttackSpec("identity", 2)), 4, 0)
        assert rep.h_xor == pytest.approx(0.0, abs=1e-12)
        assert rep.delta == pytest.approx(0.0, abs=1e-12)
        assert rep.chi_orig == pytest.approx(0.0, abs=1e-12)

    def test_phase_conversion_signs(self):
        ch = make_attack(AttackSpec("phase_conversion", 2))
        diag = [ch.kraus[i, i, 0].real for i in range(4)]
        assert diag == [1.0, -1.0, -1.0, 1.0]

    def test_phase_conversion_error_distribution(self):
        ed1 = xor_error_distribution(make_attack(AttackSpec("phase_conversion", 1)))
        assert np.allclose(ed1.probs, [0.0, 1.0])
        # with two qubits both conjugate bits flip: all mass at c = 11
        ed2 = xor_error_distribution(make_attack(AttackSpec("phase_conversion", 2)))
        assert np.allclose(ed2.probs, [0.0, 0.0, 0.0, 1.0])

    def test_probe_overlap_zero_angle_is_informationless(self):
        ch = make_attack(AttackSpec("probe_overlap", 1, params=(0.0,)))
        assert reference.holevo(reference._states(ch.kraus)) == pytest.approx(0.0, abs=1e-12)
        assert xor_entropy_bound(xor_error_distribution(ch)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_probe_overlap_needs_single_qubit(self):
        with pytest.raises(UnsupportedCombinationError):
            make_attack(AttackSpec("probe_overlap", 2, params=(0.4,)))

    def test_probe_family_is_tight(self):
        for k in range(7):
            theta = k * math.pi / 12
            ch = make_attack(AttackSpec("probe_overlap", 1, params=(theta,)))
            chi = reference.holevo(reference._states(ch.kraus))
            h_xor = xor_entropy_bound(xor_error_distribution(ch))
            expected = binary_entropy((1 + math.cos(theta)) / 2)
            assert abs(chi - expected) <= 1e-8
            assert abs(h_xor - chi) <= 1e-8

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cnot_probe_is_intercept_resend(self, n):
        # both keep the pointer table eye(2**n): one channel under two names
        cnot = make_attack(AttackSpec("cnot_probe", n)).kraus
        resend = make_attack(AttackSpec("intercept_resend", n)).kraus
        assert cnot.shape == resend.shape and cnot.tobytes() == resend.tobytes()

    def test_intercept_resend_and_cnot_saturate_at_one_qubit(self):
        for kind in ("intercept_resend", "cnot_probe"):
            ch = make_attack(AttackSpec(kind, 1))
            assert reference.holevo(reference._states(ch.kraus)) == pytest.approx(1.0, abs=1e-10)
            assert xor_entropy_bound(
                xor_error_distribution(ch)
            ) == pytest.approx(1.0, abs=1e-12)


class TestRandomAttack:
    def test_unitarity_residual(self):
        ch = random_attack(1, 2, 42)
        assert unitarity_residual(ch) <= 1e-9

    def test_deterministic(self):
        a = random_attack(2, 3, 99)
        b = random_attack(2, 3, 99)
        assert np.array_equal(a.kraus, b.kraus)

    def test_seed_changes_table(self):
        a = random_attack(1, 2, 1)
        b = random_attack(1, 2, 2)
        assert not np.allclose(a.kraus, b.kraus)

    def test_audit_respects_main_bound(self):
        rep = audit_attack(random_attack(2, 4, 7), 8, 1)
        assert rep.slack_main >= -1e-9

    @pytest.mark.parametrize("seed", [-3, 1.5])
    def test_seed_must_be_a_stream_seed(self, seed):
        with pytest.raises(OutOfRangeError, match="seed"):
            random_attack(1, 2, seed)

    def test_size_guard(self):
        with pytest.raises(DimensionTooLargeError):
            # 64 * 16 = 1024 > 512 at today's limits
            random_attack(N_MAX, 2 * (MAX_TOTAL_DIM >> N_MAX), 0)
        with pytest.raises(OutOfRangeError):
            random_attack(1, 0, 0)


THIN_DRAW_CELLS = [(1, 2), (2, 4), (3, 2), (1, 8), (4, 32), (1, 256)]


class TestThinDraw:
    """A random attack is the first 2**n columns of ``random_unitary``;
    only those columns are drawn and orthonormalized.  The full square
    draw is the oracle."""

    @pytest.mark.parametrize("n, eve_dim", THIN_DRAW_CELLS)
    @pytest.mark.parametrize("seed", [5, 2**63 + 11])
    def test_matches_full_unitary(self, n, eve_dim, seed):
        ancilla = np.zeros(eve_dim, dtype=complex)
        ancilla[0] = 1.0
        full = from_unitary(random_unitary(eve_dim << n, seed), ancilla, n)
        thin = random_attack(n, eve_dim, seed)
        assert np.max(np.abs(thin.kraus - full.kraus)) <= 1e-12

    @pytest.mark.parametrize("n, eve_dim", THIN_DRAW_CELLS)
    def test_drawn_entries_are_the_full_draw(self, n, eve_dim, monkeypatch):
        drawn = []
        original = rng.gram_schmidt_unitary

        def capture(a):
            drawn.append(a)
            return original(a)

        monkeypatch.setattr(rng, "gram_schmidt_unitary", capture)
        random_attack(n, eve_dim, 31)
        rows = eve_dim << n
        want = SplitMix64(31).gaussian_matrix(rows, rows)[:, : 1 << n]
        assert len(drawn) == 1 and drawn[0].shape == want.shape
        assert np.array_equal(drawn[0].view(np.uint64), want.view(np.uint64))

    def test_dependent_columns_raise(self, monkeypatch):
        # equal Gaussian entries everywhere make every column the same
        monkeypatch.setattr(
            rng, "_gaussians_at", lambda state, pairs: np.ones(pairs.size, complex)
        )
        with pytest.raises(DependentColumnsError):
            random_attack(2, 2, 0)


@pytest.mark.parametrize("n, eve_dim", [(4, 32), (3, 64), (2, 128), (1, 256)])
def test_declared_limit_audit_certifies_chain(n, eve_dim):
    """Every cell at the total-dimension limit of 512 audits in tier-1
    time, and its report carries the full certified chain."""
    rep = audit_attack(random_attack(n, eve_dim, 8100 + n), 2, n)
    assert rep.i_lower <= rep.chi_orig + 1e-9
    assert rep.chi_orig <= rep.chi_sym + 1e-9
    assert rep.chi_sym <= rep.h_xor + 1e-9
    assert rep.spectrum_deviation <= 1e-9
