"""Tests for the shift-averaged attack and the Gram-state spectrum identity."""

import numpy as np
import pytest

import oracle
import reference
from mubeve.bounds import audit_attack
from mubeve.channel import AttackChannel, eve_state, xor_error_distribution
from mubeve.errors import (
    DimensionMismatchError,
    InvalidStateError,
    NotUnitaryError,
    OutOfRangeError,
    TranslationInvarianceError,
)
from mubeve.linalg import DensityMatrix, partial_trace, sign_grid, xor_regroup
from mubeve.symmetrize import (
    fourier_spectrum,
    project_ancilla,
    symmetrize,
    walsh_table,
)
from mubeve.zoo import AttackSpec, make_attack, random_attack


def shift_unitary(n, t, eve_dim):
    """XOR-shift by t on the ancilla register, identity on the apparatus."""
    d = 1 << n
    perm = np.zeros((d, d))
    for m in range(d):
        perm[m ^ t, m] = 1.0
    return np.kron(perm, np.eye(eve_dim))


class TestSymmetrize:
    def test_identity_attack_table(self):
        sym = symmetrize(make_attack(AttackSpec("identity", 1)))
        amp = 1.0 / np.sqrt(2.0)
        assert np.allclose(sym.kraus[0, 0], [amp, amp])
        assert np.allclose(sym.kraus[1, 1], [amp, amp])
        assert np.allclose(sym.kraus[0, 1], 0.0)
        assert np.allclose(sym.kraus[1, 0], 0.0)

    def test_matches_definition(self):
        # kraus'[i, j] = 2**(-n/2) sum_m (-1)**(m.(i^j)) |m> (x) kraus[i^m, j^m]
        ch = random_attack(2, 3, 17)
        sym = symmetrize(ch)
        d, de = ch.dim, ch.eve_dim
        assert isinstance(sym, AttackChannel)
        assert (sym.n, sym.eve_dim) == (ch.n, d * de)
        for i in range(d):
            for j in range(d):
                for m in range(d):
                    sign = (-1.0) ** bin(m & (i ^ j)).count("1")
                    expected = 0.5 * sign * ch.kraus[i ^ m, j ^ m]
                    got = sym.kraus[i, j, m * de:(m + 1) * de]
                    assert np.max(np.abs(got - expected)) <= 1e-15

    def test_row_norm_is_one(self):
        for seed in range(4):
            sym = symmetrize(random_attack(1, 2, seed))
            row = sum(
                float(np.vdot(sym.kraus[0, j], sym.kraus[0, j]).real)
                for j in range(2)
            )
            assert row == pytest.approx(1.0, abs=1e-9)

    def test_rejects_nan_table(self):
        with pytest.raises(NotUnitaryError):
            AttackChannel(n=1, eve_dim=2, kraus=np.full((2, 2, 2), np.nan))

    def test_shift_covariance(self):
        # the state for input i^t is the ancilla-shifted copy of the state
        # for input i
        attacks = [
            make_attack(AttackSpec("phase_conversion", 1)),
            random_attack(2, 2, 31),
        ]
        for ch in attacks:
            sym = symmetrize(ch)
            d = 1 << ch.n
            for i in range(d):
                base = eve_state(sym, i).matrix
                for t in range(d):
                    u = shift_unitary(ch.n, t, ch.eve_dim)
                    shifted = u @ base @ u.conj().T
                    target = eve_state(sym, i ^ t).matrix
                    assert np.max(np.abs(shifted - target)) < 1e-10


CASES = [(n, de, seed) for n, de in ((1, 1), (1, 2), (2, 2), (2, 4))
         for seed in (3, 41, 2026)]


class TestSymmetrizedIsAnAttack:
    """The symmetrized interaction is a fixed-basis attack on the enlarged
    apparatus, so the channel-level quantities apply to it unchanged."""

    @pytest.mark.parametrize("n,eve_dim,seed", CASES)
    def test_same_error_distribution(self, n, eve_dim, seed):
        ch = random_attack(n, eve_dim, seed)
        ed = xor_error_distribution(ch)
        ed_sym = xor_error_distribution(symmetrize(ch))
        assert np.max(np.abs(ed_sym.probs - ed.probs)) <= 1e-12

    @pytest.mark.parametrize("n,eve_dim,seed", CASES)
    def test_original_chi_of_symmetrized_is_chi_sym(self, n, eve_dim, seed):
        ch = random_attack(n, eve_dim, seed)
        chi_sym = audit_attack(ch, 2, seed).chi_sym
        assert abs(audit_attack(symmetrize(ch), 2, seed).chi_orig - chi_sym) <= 1e-12


class TestEveStateSym:
    def test_identity_is_pure(self):
        sym = symmetrize(make_attack(AttackSpec("identity", 1)))
        assert reference.entropy(eve_state(sym, 0).matrix) < 1e-10

    def test_phase_conversion_is_pure(self):
        sym = symmetrize(make_attack(AttackSpec("phase_conversion", 1)))
        for i in range(2):
            assert reference.entropy(eve_state(sym, i).matrix) < 1e-10

    def test_unit_trace(self):
        sym = symmetrize(random_attack(2, 4, 8))
        for i in range(4):
            tr = np.trace(eve_state(sym, i).matrix).real
            assert abs(tr - 1.0) <= 1e-10


class TestProjectAncilla:
    def test_identity_every_pair(self):
        ch = make_attack(AttackSpec("identity", 2))
        sym = symmetrize(ch)
        for i in range(4):
            for m in range(4):
                prob, state = project_ancilla(sym, i, m)
                assert prob == pytest.approx(0.25, abs=1e-12)
                assert np.allclose(state.matrix, [[1.0]])

    def test_cnot_shift_example(self):
        ch = make_attack(AttackSpec("cnot_probe", 1))
        sym = symmetrize(ch)
        _, state = project_ancilla(sym, 0, 1)
        assert np.max(np.abs(state.matrix - np.diag([0.0, 1.0]))) < 1e-12
        assert np.max(np.abs(state.matrix - eve_state(ch, 1).matrix)) < 1e-12

    def test_shift_law_over_random_attacks(self):
        count = 0
        for n in (1, 2):
            for de in (1, 2, 4):
                for k in range(9):
                    ch = random_attack(n, de, 500 + count)
                    sym = symmetrize(ch)
                    d = 1 << n
                    for i in range(d):
                        for m in range(d):
                            prob, state = project_ancilla(sym, i, m)
                            assert abs(prob - 1.0 / d) <= 1e-9
                            expected = eve_state(ch, i ^ m).matrix
                            assert np.max(np.abs(state.matrix - expected)) <= 1e-10
                    count += 1
        assert count >= 50

    @pytest.mark.parametrize("m", [1.9, "1"])
    def test_register_value_must_be_an_integer(self, m):
        # neither is read as the register value 1
        sym = symmetrize(make_attack(AttackSpec("cnot_probe", 1)))
        with pytest.raises(OutOfRangeError, match="not an integer"):
            project_ancilla(sym, 0, m)
        assert project_ancilla(sym, 0, np.int64(1))[0] == project_ancilla(sym, 0, 1)[0]

    @pytest.mark.parametrize("n, eve_dim", [(1, 3), (2, 2)])
    def test_apparatus_without_whole_register_rejected(self, n, eve_dim):
        # eve_dim 3 is not two register values of one apparatus dimension,
        # and eve_dim 2 cannot hold a 4-value register at all
        with pytest.raises(DimensionMismatchError):
            project_ancilla(random_attack(n, eve_dim, 1), 0, 1)


class TestPurification:
    def test_normalized(self):
        pur = oracle.purification_vectors(symmetrize(random_attack(2, 2, 6)).kraus)
        norms = np.sum(np.abs(pur) ** 2, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-9

    def test_cnot_orthogonal_reference_components(self):
        # nonzero Kraus vectors sit at distinct apparatus pointers, so the
        # purifications are orthogonal
        sym = symmetrize(make_attack(AttackSpec("cnot_probe", 1)))
        pur = oracle.purification_vectors(sym.kraus)
        overlap = np.vdot(pur[0], pur[1])
        assert abs(overlap) < 1e-12

    def test_identity_parallel_purifications(self):
        # every purification is the same vector: the Kraus table does not
        # depend on the input beyond the diagonal, and the reference slot
        # i XOR j = 0 is common
        sym = symmetrize(make_attack(AttackSpec("identity", 1)))
        pur = oracle.purification_vectors(sym.kraus)
        overlap = np.vdot(pur[0], pur[1])
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_partial_trace_recovers_symmetrized_state(self):
        ch = random_attack(1, 3, 12)
        sym = symmetrize(ch)
        pur = oracle.purification_vectors(sym.kraus)
        d = 1 << ch.n
        for i in range(d):
            joint = DensityMatrix.pure(pur[i])
            reduced = partial_trace(joint, sym.eve_dim, d, keep="left")
            expected = eve_state(sym, i).matrix
            assert np.max(np.abs(reduced.matrix - expected)) <= 1e-10


def dense_sigma(ch):
    """The oracle's Gram state of the symmetrized ``ch`` and its Fourier spectrum."""
    return oracle.sigma_matrix(oracle.purification_vectors(symmetrize(ch).kraus))


class TestSigmaMatrix:
    def test_identity_rank_one(self):
        sigma, lambdas = dense_sigma(make_attack(AttackSpec("identity", 1)))
        assert np.allclose(lambdas, [1.0, 0.0], atol=1e-12)
        # all-ones Gram, normalized
        assert np.allclose(sigma, np.full((2, 2), 0.5), atol=1e-12)

    def test_phase_conversion_all_error(self):
        _, lambdas = dense_sigma(make_attack(AttackSpec("phase_conversion", 1)))
        assert np.allclose(lambdas, [0.0, 1.0], atol=1e-12)

    def test_cnot_uniform(self):
        _, lambdas = dense_sigma(make_attack(AttackSpec("cnot_probe", 1)))
        assert np.allclose(lambdas, [0.5, 0.5], atol=1e-12)

    def test_f_profile_starts_at_one(self):
        # the overlap of a normalized purification with itself, 2**n sigma[0, 0]
        sigma, _ = dense_sigma(random_attack(2, 2, 40))
        assert 4 * sigma[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_translation_invariance_violation_detected(self):
        # hand-built vectors with a complex cross overlap cannot come from
        # a shift-averaged family; the representative check must fire
        v = np.zeros((2, 4), dtype=complex)
        v[0, :2] = [1.0, 1.0]
        v[0] /= np.sqrt(2.0)
        v[1, :2] = [1.0, 1.0j]
        v[1] /= np.sqrt(2.0)
        with pytest.raises(TranslationInvarianceError):
            oracle.sigma_matrix(v)

    @pytest.mark.parametrize("rows", [1, 3, 6])
    def test_row_count_must_be_power_of_two(self, rows):
        v = np.zeros((rows, 4), dtype=complex)
        v[:, 0] = 1.0
        with pytest.raises(DimensionMismatchError):
            oracle.sigma_matrix(v)

    def test_rejects_flat_input(self):
        with pytest.raises(DimensionMismatchError):
            oracle.sigma_matrix(np.ones(4))

    def test_unnormalized_rows_fail_trace_check(self):
        pur = oracle.purification_vectors(symmetrize(random_attack(1, 2, 6)).kraus)
        with pytest.raises(InvalidStateError):
            oracle.sigma_matrix(1.1 * pur)


class TestFourierSpectrum:
    @pytest.mark.parametrize("n,eve_dim", [(1, 1), (2, 3), (3, 2), (4, 1)])
    def test_walsh_table_is_the_grid_product(self, n, eve_dim):
        # the stacked product the audit formed before walsh_table
        kraus = random_attack(n, eve_dim, 40 + n).kraus
        expected = sign_grid(n) @ xor_regroup(kraus)
        assert np.max(np.abs(walsh_table(kraus) - expected)) <= 1e-13

    @pytest.mark.parametrize("scale", [1.1, np.nan])
    def test_must_be_a_distribution(self, scale):
        # the sum of the spectrum is the trace of the Gram state
        walsh = scale * walsh_table(random_attack(2, 2, 5).kraus)
        with pytest.raises(TranslationInvarianceError):
            fourier_spectrum(walsh)


def dense_deviation(ch):
    """The oracle's spectrum-identity residual of ``ch``."""
    return oracle.sigma_spectrum_check(*dense_sigma(ch), xor_error_distribution(ch).probs)


class TestSpectrumCheck:
    def test_identity_exact(self):
        assert dense_deviation(make_attack(AttackSpec("identity", 2))) <= 1e-12

    def test_phase_conversion_exact(self):
        assert dense_deviation(make_attack(AttackSpec("phase_conversion", 1))) <= 1e-12

    def test_random_ensemble(self):
        count = 0
        for n in (1, 2):
            for de in (1, 2, 4):
                for k in range(10):
                    assert dense_deviation(random_attack(n, de, 900 + count)) <= 1e-9
                    count += 1
