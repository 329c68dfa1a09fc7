"""Tests for the built-in attack constructors."""

import math

import numpy as np
import pytest

import mubeve.rng as rng
from mubeve.bounds import audit_attack, holevo_chi, Ensemble, xor_entropy_bound
from mubeve.channel import eve_state, from_unitary, xor_error_distribution
from mubeve.errors import (
    DependentColumnsError,
    DimensionTooLargeError,
    OutOfRangeError,
    UnsupportedCombinationError,
)
from mubeve.rng import SplitMix64, random_unitary
from mubeve.zoo import KINDS, AttackSpec, make_attack, random_attack


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

    def test_param_arity(self):
        with pytest.raises(OutOfRangeError):
            AttackSpec("probe_overlap", 1)  # angle missing
        with pytest.raises(OutOfRangeError):
            AttackSpec("identity", 1, params=(0.1,))

    def test_qubit_range(self):
        with pytest.raises(OutOfRangeError):
            AttackSpec("identity", 0)
        with pytest.raises(OutOfRangeError):
            AttackSpec("identity", 5)


class TestMakeAttack:
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
        ens = Ensemble.uniform([eve_state(ch, i) for i in range(2)])
        assert holevo_chi(ens) == pytest.approx(0.0, abs=1e-12)
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
            ens = Ensemble.uniform([eve_state(ch, i) for i in range(2)])
            chi = holevo_chi(ens)
            h_xor = xor_entropy_bound(xor_error_distribution(ch))
            expected = binary_entropy((1 + math.cos(theta)) / 2)
            assert abs(chi - expected) <= 1e-8
            assert abs(h_xor - chi) <= 1e-8

    def test_intercept_resend_and_cnot_saturate_at_one_qubit(self):
        for kind in ("intercept_resend", "cnot_probe"):
            ch = make_attack(AttackSpec(kind, 1))
            ens = Ensemble.uniform([eve_state(ch, i) for i in range(2)])
            assert holevo_chi(ens) == pytest.approx(1.0, abs=1e-10)
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

    def test_size_guard(self):
        with pytest.raises(DimensionTooLargeError):
            random_attack(4, 64, 0)  # 64 * 16 = 1024 > 512
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
