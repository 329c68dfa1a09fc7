"""Tests for information quantities, the bound chain and audits."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mubeve.bounds as bounds
import mubeve.channel as channel_module
import mubeve.linalg as linalg
import mubeve.rng as rng_module
import mubeve.symmetrize as symmetrize_module
import oracle
import reference
from mubeve.bounds import (
    audit_attack,
    boykin_bound,
    corollary_bound,
    kraus_holevo_chi,
    symmetrized_holevo_chi,
    xor_entropy_bound,
)
from mubeve.channel import AttackChannel, ErrorDistribution, from_unitary
from mubeve.errors import (
    DependentColumnsError,
    DimensionMismatchError,
    EigensolverError,
    InvalidArrayError,
    InvalidPovmError,
    NotUnitaryError,
    OutOfRangeError,
    TheoremViolation,
)
from mubeve.linalg import MAX_TOTAL_DIM, N_MAX
from mubeve.rng import SplitMix64, gram_schmidt_unitary
from mubeve.symmetrize import fourier_spectrum, walsh_table
from mubeve.zoo import AttackSpec, make_attack, random_attack

# frozen from a 50-digit evaluation of h2(0.01) + 3 * 0.01
COROLLARY_001_N3 = 0.11079313589591118


def binary_entropy(p):
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def basis_projectors(d):
    return np.stack([np.diag(np.eye(d)[k]).astype(complex) for k in range(d)])


def random_basis_projectors(d, stream):
    """Rank-1 projectors onto the columns of the next random orthonormal
    basis drawn from ``stream``, as a full POVM element stack."""
    basis = gram_schmidt_unitary(stream.gaussian_matrix(d, d))
    return np.stack([np.outer(basis[:, k], basis[:, k].conj()) for k in range(d)])


def pure(v):
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


def overlap_pair(theta):
    """The states of the probe pair with overlap cos(theta)."""
    return np.stack([pure([1.0, 0.0]), pure([np.cos(theta), np.sin(theta)])])


def states_of(ch):
    """The checker's dense apparatus states of ``ch``."""
    return reference._states(ch.kraus)


def measured(states, elements):
    """The checker's mutual information between a uniform label and the
    outcome of measuring the element stack, ``p(a|i) = tr(X_a rho_i)``."""
    return reference._mutual_information(
        states, np.einsum("axy,iyx->ia", elements, states).real)


class TestEnsemblePovmTypes:
    """The package's POVM check, ``bounds._check_povm_stack``, rejects an
    element stack that is incomplete, not positive or not Hermitian."""

    def test_povm_completeness(self):
        with pytest.raises(InvalidPovmError):
            bounds._check_povm_stack(np.stack([np.eye(2) * 0.4] * 2))

    def test_povm_psd(self):
        with pytest.raises(InvalidPovmError):
            bounds._check_povm_stack(np.stack([np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])]))

    def test_povm_hermitian(self):
        bad = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(InvalidPovmError):
            bounds._check_povm_stack(np.stack([bad, np.eye(2) - bad]))


class TestHolevoChi:
    """Closed forms of the checker's Holevo quantity."""

    def test_orthogonal_pure_states(self):
        assert reference.holevo(overlap_pair(math.pi / 2)) == pytest.approx(1.0, abs=1e-12)

    def test_identical_states(self):
        states = np.stack([np.eye(2) / 2] * 4)
        assert reference.holevo(states) == pytest.approx(0.0, abs=1e-12)

    def test_overlap_closed_form(self):
        for theta in (0.2, 0.9, 1.3):
            expected = binary_entropy((1 + math.cos(theta)) / 2)
            assert reference.holevo(overlap_pair(theta)) == pytest.approx(expected, abs=1e-10)


class TestMutualInformation:
    """Closed forms of the checker's mutual information."""

    def test_identical_states_give_zero(self):
        states = states_of(make_attack(AttackSpec("identity", 2)))
        assert measured(states, basis_projectors(1)) == pytest.approx(0.0, abs=1e-12)

    def test_pointer_basis_reads_intercept_resend(self):
        states = states_of(make_attack(AttackSpec("intercept_resend", 1)))
        assert measured(states, basis_projectors(2)) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_probe_pair(self):
        states = overlap_pair(math.pi / 2)
        assert measured(states, basis_projectors(2)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_expansion_for_uniform_priors(self):
        # I = 2**-N sum_a sum_i p(a|i) (log p(a|i) - log sum_j p(a|j)) + N
        states = states_of(random_attack(1, 2, 314))
        povm = random_basis_projectors(2, SplitMix64(11))
        direct = 0.0
        n = 1
        for elem in povm:
            cond = [max(np.trace(elem @ s).real, 0.0) for s in states]
            total = sum(cond)
            for p in cond:
                if p > 0.0:
                    direct += (1 / 2**n) * p * (math.log2(p) - math.log2(total))
        direct += n
        got = measured(states, povm)
        assert got == pytest.approx(direct, abs=1e-10)

    def test_bounded_by_label_entropy(self):
        stream = SplitMix64(77)
        for seed in range(5):
            states = states_of(random_attack(1, 4, 600 + seed))
            val = measured(states, random_basis_projectors(4, stream))
            assert -1e-12 <= val <= 1.0 + 1e-9


class TestPrettyGoodMeasurement:
    def test_two_state_success_matches_helstrom(self):
        # for two equiprobable pure states the pretty good measurement is
        # the Helstrom measurement, whose success probability is 1/2 +
        # (1/2) * trace norm of (rho0 - rho1) / 2; its outcome errs with
        # the same probability for either state, so it reads 1 - h2(success)
        for theta in (0.3, 0.7, 1.1, 1.5):
            states = overlap_pair(theta)
            diff = 0.5 * states[0] - 0.5 * states[1]
            helstrom = 0.5 + 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
            assert helstrom == pytest.approx((1 + math.sin(theta)) / 2, abs=1e-10)
            assert reference._pgm_information(states) == pytest.approx(
                1.0 - binary_entropy(helstrom), abs=1e-10)


class TestAccessibleInfoLowerBound:
    """The audit's measured search, ``bounds._accessible_info``, against the
    checker's dense one."""

    def test_identity_zero(self):
        ch = make_attack(AttackSpec("identity", 1))
        assert bounds._accessible_info(ch.kraus, 8, 0) == pytest.approx(0.0, abs=1e-12)

    def test_intercept_resend_reaches_one_bit(self):
        ch = make_attack(AttackSpec("intercept_resend", 1))
        assert bounds._accessible_info(ch.kraus, 4, 0) == pytest.approx(1.0, abs=1e-6)

    def test_never_exceeds_holevo(self):
        for seed in range(6):
            ch = random_attack(1, 2, 70 + seed)
            assert (
                bounds._accessible_info(ch.kraus, 12, seed)
                <= reference.holevo(states_of(ch)) + 1e-9
            )

    def test_monotone_in_samples(self):
        kraus = random_attack(1, 4, 1234).kraus
        values = [bounds._accessible_info(kraus, s, 5) for s in (0, 2, 4, 8, 16)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "n,eve_dim,seed,samples",
        [
            pytest.param(1, 2, 3, 6, id="1-2-3"),
            pytest.param(2, 2, 8, 6, id="2-2-8"),
            pytest.param(1, 8, 21, 6, id="1-8-21"),
            pytest.param(2, 4, 5, 6, id="2-4-5"),
            # at eve_dim 64 a block holds 16 bases: one full block and a partial one
            pytest.param(1, 64, 9, 20, id="1-64-9-two-blocks"),
        ],
    )
    def test_matches_projector_povm_oracle(self, n, eve_dim, seed, samples):
        # reference: the checker's dense pretty good measurement, and the
        # same bases from its own stream, drawn one at a time, as
        # projective measurements of the dense states
        ch = random_attack(n, eve_dim, seed)
        want = reference.measured_information(states_of(ch), samples, seed + 100)
        got = bounds._accessible_info(ch.kraus, samples, seed + 100)
        assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("n, eve_dim",
                             [(1, 8), (2, 4), (3, 2), (4, 32), (1, 256), (2, 32)])
    def test_kraus_columns_match_dense_ensemble(self, monkeypatch, n, eve_dim):
        # the audit scores each basis against the Kraus vectors of the
        # support table (at most 4**n wide, and reduced by QR where they
        # outnumber its width), in blocks; the checker measures the same
        # bases, drawn one at a time from its own stream, on the dense
        # states of that table: both see the same outcome probabilities
        scored, bases = [], []
        label_information = bounds._label_information
        orthonormal_columns = reference.orthonormal_columns

        def recording(cond):
            if cond.ndim == 3:
                scored.append(cond)
            return label_information(cond)

        def recording_basis(a):
            bases.append(orthonormal_columns(a))
            return bases[-1]

        monkeypatch.setattr(bounds, "_label_information", recording)
        monkeypatch.setattr(reference, "orthonormal_columns", recording_basis)
        ch = random_attack(n, eve_dim, 40 + n)
        got = audit_attack(ch, 6, 3).i_lower
        kraus = np.concatenate(scored)
        states = reference._states(bounds._support_table(ch.kraus))
        want = reference.measured_information(states, 6, 3)
        dense = np.stack([np.einsum("xa,ixy,ya->ia", basis.conj(), states, basis).real
                          for basis in bases])
        assert kraus.shape == dense.shape == (6, ch.dim, min(eve_dim, 4**n))
        assert np.max(np.abs(kraus - dense)) <= 1e-12
        assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("n, eve_dim", [(1, 8), (3, 2)])
    def test_dependent_draw_raises_on_each_route(self, monkeypatch, n, eve_dim):
        # (1, 8) is measured on its 4-wide support table, (3, 2) on its own
        # 2 columns; both check the draw's rank
        ch = random_attack(n, eve_dim, 5)
        monkeypatch.setattr(
            rng_module, "_gaussians_at", lambda state, pairs: np.ones(pairs.size, complex)
        )
        with pytest.raises(DependentColumnsError):
            audit_attack(ch, 2, 0)

    def test_negative_samples_rejected(self):
        ch = random_attack(1, 2, 3)
        for route in (lambda s: bounds._accessible_info(ch.kraus, s, 1),
                      lambda s: audit_attack(ch, s, 1)):
            with pytest.raises(OutOfRangeError, match="samples -1 must be at least 0"):
                route(-1)

    def test_non_integer_samples_rejected(self):
        ch = random_attack(1, 2, 3)
        for route in (lambda s: bounds._accessible_info(ch.kraus, s, 1),
                      lambda s: audit_attack(ch, s, 1)):
            with pytest.raises(OutOfRangeError, match="samples 2.5 is not an integer"):
                route(2.5)
        # a numpy integer is a count like any other
        assert audit_attack(ch, np.int64(3), 1).i_lower == audit_attack(ch, 3, 1).i_lower


PGM_CELLS = [(1, 2, 3), (2, 2, 8), (1, 8, 21), (2, 4, 5), (1, 64, 9),
             (3, 2, 6), (4, 32, 7), (1, 256, 10), (1, 1, 11)]


class TestPgmStack:
    """The audit builds the pretty good measurement on the support of the
    ensemble average and checks it once; the checker's dense measurement,
    on all of ``eve_dim``, is the reference."""

    @pytest.mark.parametrize("n, eve_dim, seed", PGM_CELLS)
    def test_matches_validated_povm(self, n, eve_dim, seed):
        # no random basis: the measured value is the PGM's alone
        ch = random_attack(n, eve_dim, seed)
        got = bounds._accessible_info(ch.kraus, 0, seed)
        want = reference._pgm_information(states_of(ch))
        assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("n, eve_dim, width", [(1, 256, 4), (3, 2, 2)])
    def test_audit_measures_on_the_support(self, monkeypatch, n, eve_dim, width):
        # the audit's PGM stack is as wide as the support of the average,
        # at most min(4**n, eve_dim), and no eigensolve is eve_dim wide
        checked, solved = [], []
        check = bounds._check_povm_stack
        eigh = linalg._eigh

        def recording_check(elements):
            checked.append(elements.shape)
            check(elements)

        def recording_eigh(a, want_vectors):
            solved.append(a.shape[-1])
            return eigh(a, want_vectors)

        monkeypatch.setattr(bounds, "_check_povm_stack", recording_check)
        monkeypatch.setattr(linalg, "_eigh", recording_eigh)
        audit_attack(random_attack(n, eve_dim, 13), 4, 2)
        assert len(checked) == 1
        count, rows, cols = checked[0]
        assert count == 1 << n and rows == cols <= width
        if eve_dim > 4**n:
            assert rows == width
            assert max(solved) < eve_dim

    @pytest.mark.parametrize("n, eve_dim", [(1, 8), (2, 128), (1, 256)])
    def test_search_draws_on_the_support(self, monkeypatch, n, eve_dim):
        # where eve_dim > 4**n every basis is drawn on the support table,
        # 4**n wide, and the report keeps the channel's eve_dim
        shapes = []
        draw = rng_module.SplitMix64.gaussian_matrix

        def recording(stream, rows, cols):
            shapes.append((rows, cols))
            return draw(stream, rows, cols)

        ch = random_attack(n, eve_dim, 17)
        monkeypatch.setattr(rng_module.SplitMix64, "gaussian_matrix", recording)
        rep = audit_attack(ch, 8, 1)
        assert rep.eve_dim == eve_dim
        assert {cols for _, cols in shapes} == {4**n}
        assert sum(rows for rows, _ in shapes) == 8 * 4**n

    def projectors(self, d):
        return np.stack([np.diag(np.eye(d)[k]).astype(complex) for k in range(d)])

    def test_negative_eigenvalue_in_one_element(self):
        # completeness still holds: the defect moves weight between elements
        stack = self.projectors(4)
        stack[2, 0, 0] -= 1e-6
        stack[0, 0, 0] += 1e-6
        with pytest.raises(InvalidPovmError, match="positive semidefinite"):
            bounds._check_povm_stack(stack)

    def test_eigenvalue_within_floor_accepted(self):
        # rounding-sized negatives above -TAU_PSD are not a violation
        stack = self.projectors(4)
        stack[2, 0, 0] -= 0.5e-10
        stack[0, 0, 0] += 0.5e-10
        bounds._check_povm_stack(stack)

    def test_completeness_error(self):
        stack = self.projectors(4)
        stack[3, 3, 3] += 1e-7
        with pytest.raises(InvalidPovmError, match="completeness"):
            bounds._check_povm_stack(stack)

    def test_non_hermitian_element(self):
        stack = self.projectors(2)
        stack[1, 0, 1] = 1e-6
        with pytest.raises(InvalidPovmError, match="Hermitian"):
            bounds._check_povm_stack(stack)

    def test_nan_state(self):
        # non-finite Kraus entries stop the measured search with the
        # eigensolver's error, with or without the QR reduction, and
        # before any arithmetic on them could warn
        for n, eve_dim in ((1, 2), (3, 2)):
            kraus = random_attack(n, eve_dim, 4).kraus.copy()
            for bad in (np.nan, np.inf):
                kraus[1, 0, 0] = bad
                with pytest.raises(EigensolverError):
                    bounds._accessible_info(kraus, 2, 0)


class TestClosedFormBounds:
    def test_xor_entropy(self):
        assert xor_entropy_bound(ErrorDistribution(1, [1.0, 0.0])) == 0.0
        assert xor_entropy_bound(ErrorDistribution(1, [0.0, 1.0])) == 0.0
        assert xor_entropy_bound(ErrorDistribution(1, [0.5, 0.5])) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_boykin(self):
        assert boykin_bound(ErrorDistribution(1, [1.0, 0.0])) == 0.0
        assert boykin_bound(ErrorDistribution(1, [0.0, 1.0])) == 4.0
        probs = np.full(8, 0.01 / 7)
        probs[0] = 0.99
        assert boykin_bound(ErrorDistribution(3, probs)) == pytest.approx(
            1.2, abs=1e-12
        )

    def test_corollary_endpoints(self):
        assert corollary_bound(0.0, 3) == 0.0
        assert corollary_bound(1.0, 3) == 3.0

    def test_corollary_extended_precision_value(self):
        assert corollary_bound(0.01, 3) == pytest.approx(
            COROLLARY_001_N3, abs=1e-15
        )

    def test_corollary_oracle_recomputation(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        d = mp.mpf("0.01")
        exact = -d * mp.log(d, 2) - (1 - d) * mp.log(1 - d, 2) + 3 * d
        assert corollary_bound(0.01, 3) == pytest.approx(float(exact), abs=1e-15)

    def test_corollary_range(self):
        with pytest.raises(OutOfRangeError):
            corollary_bound(-0.1, 1)
        with pytest.raises(OutOfRangeError):
            corollary_bound(1.1, 1)

    @pytest.mark.parametrize("delta, n, message", [
        # -0.5 was returned as if it were a bound
        (0.5, -3, "qubit count -3 must be at least 1"),
        (0.5, 0, "qubit count 0 must be at least 1"),
        (0.5, 2.0, "qubit count 2.0 is not an integer"),
        (0.5, "x", "qubit count 'x' is not an integer"),
        (0.5, True, "qubit count True is not an integer"),
        ("a", 1, "delta 'a' is not a real number"),
        (None, 1, "delta None is not a real number"),
        (False, 1, "delta False is not a real number"),
        # the range message is unchanged, and checked before the qubit count
        (1.5, "x", "delta 1.5 outside [0, 1]"),
        (float("nan"), 1, "delta nan outside [0, 1]"),
        (np.float64(-0.25), 1, "delta -0.25 outside [0, 1]"),
        (2, 1, "delta 2 outside [0, 1]"),
    ])
    def test_corollary_arguments_checked(self, delta, n, message):
        with pytest.raises(OutOfRangeError) as err:
            corollary_bound(delta, n)
        assert str(err.value) == message

    def test_corollary_accepts_numpy_numbers(self):
        assert corollary_bound(np.float64(0.01), np.int64(3)) == corollary_bound(0.01, 3)
        assert corollary_bound(1, 2) == 2.0

    def test_corollary_dominates_max_entropy_distribution(self):
        # the entropy maximizer at fixed delta stays below the closed form
        for n in (1, 2, 3):
            for delta in (0.01, 0.1, 0.5, 0.9):
                d = 1 << n
                probs = np.full(d, delta / (d - 1))
                probs[0] = 1 - delta
                h = xor_entropy_bound(ErrorDistribution(n, probs))
                assert corollary_bound(delta, n) >= h - 1e-9


class TestAuditAttack:
    def test_phase_conversion_report(self):
        rep = audit_attack(make_attack(AttackSpec("phase_conversion", 1)), 8, 3)
        assert rep.delta == pytest.approx(1.0, abs=1e-15)
        assert rep.h_xor == pytest.approx(0.0, abs=1e-15)
        assert rep.chi_orig == pytest.approx(0.0, abs=1e-12)
        assert rep.chi_sym == pytest.approx(0.0, abs=1e-12)
        assert rep.boykin_rhs == 4.0
        assert rep.corollary_rhs == pytest.approx(1.0, abs=1e-15)
        assert rep.i_lower == pytest.approx(0.0, abs=1e-12)

    def test_identity_all_zero(self):
        rep = audit_attack(make_attack(AttackSpec("identity", 2)), 8, 3)
        for value in (
            rep.delta, rep.h_xor, rep.chi_orig, rep.chi_sym, rep.i_lower,
            rep.boykin_rhs, rep.corollary_rhs, rep.spectrum_deviation,
        ):
            assert value == pytest.approx(0.0, abs=1e-12)

    def test_probe_overlap_tightness(self):
        theta = math.pi / 3
        rep = audit_attack(
            make_attack(AttackSpec("probe_overlap", 1, params=(theta,))), 8, 3
        )
        expected = binary_entropy(0.75)
        assert rep.chi_orig == pytest.approx(expected, abs=1e-8)
        assert rep.h_xor == pytest.approx(expected, abs=1e-8)
        assert rep.slack_main >= -1e-9

    def test_bound_chain_on_random_attacks(self):
        idx = 0
        for n in (1, 2):
            for de in (1, 2, 4):
                for k in range(4):
                    ch = random_attack(n, de, 4400 + idx)
                    rep = audit_attack(ch, 16, idx)
                    assert rep.chi_sym <= rep.h_xor + 1e-9
                    assert rep.i_lower <= rep.h_xor + 1e-9
                    assert rep.i_lower <= rep.chi_orig + 1e-9
                    assert rep.corollary_rhs >= rep.h_xor - 1e-9
                    assert rep.spectrum_deviation <= 1e-9
                    idx += 1

    @staticmethod
    def assert_bound_chain(rep):
        assert rep.slack_main >= -1e-9
        assert rep.slack_measured >= -1e-9
        assert rep.i_lower <= rep.chi_orig + 1e-9
        # data processing: reading the shift register recovers the
        # original ensemble, so symmetrizing cannot lose information
        assert rep.chi_orig <= rep.chi_sym + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        # n = 1 to 6 at total dimension 2**n * eve_dim <= 64; the slow
        # sweep below reaches N_MAX and the total-dimension limit
        cell=st.integers(1, 6).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(1, 64 >> n))
        ),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_bound_chain_property(self, cell, seed):
        n, eve_dim = cell
        self.assert_bound_chain(audit_attack(random_attack(n, eve_dim, seed), 4, seed))

    @pytest.mark.slow
    @pytest.mark.parametrize("n", range(1, N_MAX + 1))
    def test_bound_chain_at_every_qubit_count(self, n):
        # each n at the narrowest apparatus and at the widest the
        # total-dimension limit admits
        for eve_dim in (1, MAX_TOTAL_DIM >> n):
            rep = audit_attack(random_attack(n, eve_dim, 4500 + n), 16, n)
            self.assert_bound_chain(rep)
            assert rep.spectrum_deviation <= 1e-9

    @pytest.mark.parametrize("seed", [2.5, -1.0, "1"])
    def test_seed_must_be_a_stream_seed(self, seed):
        # not measured with seed 2, 2**64 - 1 or 1
        with pytest.raises(OutOfRangeError, match="seed"):
            audit_attack(random_attack(1, 2, 3), 4, seed)

    @pytest.mark.parametrize("change, message", [
        ({"chi_orig": -1.0}, "negative entropic field in report"),
        ({"delta": 1.5}, "delta 1.5 outside [0, 1]"),
    ], ids=["negative-entropy", "delta-above-1"])
    def test_report_fields_checked(self, change, message):
        report = audit_attack(random_attack(1, 2, 3), 4, 5)
        with pytest.raises(OutOfRangeError) as err:
            replace(report, **change)
        assert str(err.value) == message

    def test_swapped_holevo_values_violate_chain(self, swap_holevo):
        # chi_sym - chi_orig is about 0.7 here; only the new link sees the swap
        with pytest.raises(TheoremViolation) as info:
            audit_attack(random_attack(2, 2, 11), 4, 0)
        rep = info.value.report
        assert rep.chi_orig > rep.chi_sym + 1e-9
        assert rep.slack_main >= -1e-9
        # the message names the failed link, and only it, with both values
        assert str(info.value) == (
            "audited bounds violated beyond 1e-09: "
            f"chi_orig {rep.chi_orig:.17g} > chi_sym {rep.chi_sym:.17g}"
        )

    def test_builds_no_symmetrized_table(self, monkeypatch):
        # chi_sym and the sigma check come from the original table, so the
        # audit builds no channel, such as the enlarged attack; the
        # symmetrized table and the dense Gram route are only the reference
        built = []
        original_init = AttackChannel.__post_init__

        def counting_init(self):
            built.append(self)
            original_init(self)

        ch = random_attack(3, 2, 19)
        monkeypatch.setattr(AttackChannel, "__post_init__", counting_init)
        audit_attack(ch, 4, 2)
        assert built == []

    def test_checks_each_distribution_once(self, monkeypatch):
        # the probability rule runs once per validated array: the error
        # distribution, the four spectrum stacks and the Fourier spectrum;
        # the measured search scores with the unchecked entropy core
        checked = []
        rule = linalg._check_probabilities

        def recording(p, error, *rest):
            checked.append((p, error.__name__))
            rule(p, error, *rest)

        for module in (linalg, bounds, symmetrize_module, channel_module):
            if hasattr(module, "_check_probabilities"):
                monkeypatch.setattr(module, "_check_probabilities", recording)
        audit_attack(random_attack(3, 2, 19), 16, 2)
        assert [name for _, name in checked] == [
            "NotADistributionError",
            "InvalidStateError", "InvalidStateError",   # kraus_holevo_chi
            "InvalidStateError", "InvalidStateError",   # symmetrized_holevo_chi
            "TranslationInvarianceError",               # fourier_spectrum
        ]
        assert len({id(p) for p, _ in checked}) == len(checked)

    def test_inflated_i_lower_violates_chain(self, monkeypatch):
        ch = random_attack(2, 2, 11)
        chi_orig = audit_attack(ch, 4, 0).chi_orig
        # the audit runs the measured search on the Kraus table directly
        monkeypatch.setattr(
            bounds, "_accessible_info", lambda kraus, s, seed: chi_orig + 1e-6
        )
        with pytest.raises(TheoremViolation) as info:
            audit_attack(ch, 4, 0)
        assert info.value.report.slack_measured >= -1e-9
        assert str(info.value).endswith(
            f": i_lower {chi_orig + 1e-6:.17g} > chi_orig {chi_orig:.17g}"
        )


def unitarity_residual(kraus):
    rows = kraus.reshape(kraus.shape[0], -1)
    return float(np.max(np.abs(rows.conj() @ rows.T - np.eye(kraus.shape[0]))))


def perturbed_table(rng):
    """A named or random Kraus table, padded to a random apparatus size,
    plus a random perturbation scaled to a unitarity residual of about
    0.98e-9, just under the 1e-9 that ``AttackChannel`` accepts."""
    n, eve_dim = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    kind = str(rng.choice(["identity", "phase_conversion", "intercept_resend", "random"]))
    if kind == "random":
        base = random_attack(n, eve_dim, int(rng.integers(2**32))).kraus
    else:
        base = make_attack(AttackSpec(kind, n)).kraus
    kraus = np.zeros(base.shape[:2] + (max(eve_dim, base.shape[2]),), dtype=complex)
    kraus[..., :base.shape[2]] = base
    g = rng.normal(size=kraus.shape) + 1j * rng.normal(size=kraus.shape)
    g *= 1e-9 / np.linalg.norm(g)
    return kraus + (0.98e-9 / unitarity_residual(kraus + g)) * g


class TestAcceptedMeansAuditable:
    """A channel that ``AttackChannel`` accepts audits; the error
    distribution adds no rule of its own beyond the probability rule."""

    def test_identity_with_extra_apparatus_amplitude(self):
        # residual 5e-10 puts p(0) at 1 + 5e-10, above 1 + TAU_PSD
        kraus = np.zeros((2, 2, 2), dtype=complex)
        kraus[0, 0, 0] = kraus[1, 1, 0] = 1.0
        kraus[1, 1, 1] = math.sqrt(5e-10)
        rep = audit_attack(AttackChannel(n=1, eve_dim=2, kraus=kraus), 4, 0)
        assert rep.error_dist.probs[0] > 1.0 + 1e-10
        assert 0.0 <= rep.h_xor <= 1e-8
        assert rep.slack_main >= -1e-9 and rep.slack_measured >= -1e-9

    def test_entry_above_one_within_sum_tolerance(self):
        ed = ErrorDistribution(1, [1.0 + 5e-10, 0.0])
        assert xor_entropy_bound(ed) == 0.0

    def test_perturbed_tables_audit(self):
        rng = np.random.default_rng(20261019)
        audited = 0
        for _ in range(120):
            kraus = perturbed_table(rng)
            n = kraus.shape[0].bit_length() - 1
            try:
                ch = AttackChannel(n=n, eve_dim=kraus.shape[2], kraus=kraus)
            except NotUnitaryError:
                continue  # refused at construction, with a named error
            audit_attack(ch, 0, 0)
            audited += 1
        assert audited >= 100


def dense_chi(kraus):
    """The checker's Holevo quantity of the dense apparatus ensemble of a
    Kraus table."""
    return reference.holevo(reference._states(kraus))


class TestKrausHolevo:
    """``audit_attack`` reads both Holevo quantities off Kraus Gram spectra
    and the Fourier spectrum off the error-pattern table; the checker's
    error distribution, symmetrized table and dense ``holevo``, and the
    oracle's Gram route on that table, are the reference."""

    def assert_matches_dense(self, ch):
        rep = audit_attack(ch, 0, 0)
        sym = reference.symmetrized(ch.kraus)
        probs = reference.error_distribution(ch.kraus)
        assert np.max(np.abs(rep.error_dist.probs - probs)) <= 1e-12
        assert abs(rep.h_xor - reference._h(probs)) <= 1e-12
        assert abs(rep.chi_orig - dense_chi(ch.kraus)) <= 1e-12
        assert abs(rep.chi_sym - dense_chi(sym)) <= 1e-12
        assert kraus_holevo_chi(bounds._support_table(ch.kraus)) == rep.chi_orig
        assert abs(rep.chi_sym - kraus_holevo_chi(sym)) <= 1e-12
        sigma, lambdas = oracle.sigma_matrix(oracle.purification_vectors(sym))
        assert np.max(np.abs(rep.fourier_eigenvalues - lambdas)) <= 1e-12
        deviation = oracle.sigma_spectrum_check(sigma, lambdas, probs)
        assert abs(rep.spectrum_deviation - deviation) <= 1e-12

    @pytest.mark.parametrize("n, eve_dim", [
        (1, 1), (1, 2), (2, 1), (2, 4), (3, 2), (1, 8), (5, 2),
        pytest.param(6, 1, marks=pytest.mark.slow),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense_oracle(self, n, eve_dim, seed):
        self.assert_matches_dense(random_attack(n, eve_dim, 7100 + seed))

    def test_matches_dense_oracle_at_declared_limit(self):
        self.assert_matches_dense(random_attack(4, 32, 7200))

    def test_matches_dense_oracle_at_largest_apparatus(self):
        self.assert_matches_dense(random_attack(1, 256, 7300))

    @pytest.mark.parametrize("n", range(1, N_MAX + 1))
    def test_identity_is_exactly_zero(self, n):
        # the symmetrized table is square per input here: the tie that must
        # take the dense side, where the spectrum is exactly one 1
        rep = audit_attack(make_attack(AttackSpec("identity", n)), 0, 0)
        assert rep.chi_orig == 0.0
        assert rep.chi_sym == 0.0
        assert rep.slack_main == 0.0


@pytest.mark.parametrize("function, shape", [
    (walsh_table, (3, 3, 1)),
    (symmetrized_holevo_chi, (3, 3, 1)),
    (fourier_spectrum, (3, 3, 1)),
    (fourier_spectrum, (2, 2)),
    (kraus_holevo_chi, (0, 0, 1)),
    # each of these returned a value as if the table were valid
    (walsh_table, (2, 2)),
    (walsh_table, (2, 2, 0)),
    (symmetrized_holevo_chi, (2, 4, 1)),
    (fourier_spectrum, (6, 6, 1)),
    (kraus_holevo_chi, (1, 1, 1)),
])
def test_table_functions_name_a_bad_shape(function, shape):
    # a table is (2**n, 2**n, eve_dim) with n >= 1 and eve_dim >= 1; no raw
    # IndexError, AxisError or ValueError, and no value from a wrong shape
    table = np.eye(2) if shape == (2, 2) else np.ones(shape)
    with pytest.raises(DimensionMismatchError) as err:
        function(table)
    assert str(err.value).endswith(
        f"table is {shape}, expected (2**n, 2**n, eve_dim) with n >= 1 and eve_dim >= 1"
    )


@pytest.mark.parametrize("entry, what", [
    (kraus_holevo_chi, "kraus table"),
    (walsh_table, "kraus table"),
    (symmetrized_holevo_chi, "Walsh table"),
    (fourier_spectrum, "Walsh table"),
    (lambda a: AttackChannel(1, 1, a), "kraus table"),
    (lambda a: ErrorDistribution(1, a), "error probabilities"),
    (lambda u: from_unitary(u, [1], 1), "unitary"),
    (lambda a: from_unitary(np.eye(2), a, 1), "ancilla"),
], ids=["kraus_holevo_chi", "walsh_table", "symmetrized_holevo_chi", "fourier_spectrum",
        "AttackChannel", "ErrorDistribution", "from_unitary-unitary", "from_unitary-ancilla"])
@pytest.mark.parametrize("bad", [
    "abc", [[["a"]]], [["1"]], [[1], [1, 2]],
    # booleans, which numpy read as 1 and 0, and text inside an object array
    np.array([[True]]), [[0, True]], np.array([["1"]], dtype=object),
], ids=["string", "text", "numeric-text", "ragged", "bool-array", "list-with-bool",
        "object-text"])
def test_public_array_entries_name_unreadable_input(entry, what, bad):
    # numpy raised a bare ValueError for most of these, read "1" as 1 and True as 1
    with pytest.raises(InvalidArrayError) as err:
        entry(bad)
    assert str(err.value) == f"{what} is not a rectangular array of numbers"
