"""Tests for information quantities, the bound chain and audits."""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mubeve.bounds as bounds
from mubeve.bounds import (
    Ensemble,
    Povm,
    accessible_info_lower_bound,
    audit_attack,
    boykin_bound,
    corollary_bound,
    holevo_chi,
    kraus_holevo_chi,
    mutual_information_of_measurement,
    pretty_good_measurement,
    xor_entropy_bound,
)
from mubeve.channel import (
    AttackChannel,
    ErrorDistribution,
    eve_state,
    eve_states,
    xor_error_distribution,
)
from mubeve.errors import (
    EigensolverError,
    InvalidPovmError,
    MubeveError,
    OutOfRangeError,
    TheoremViolation,
    WrongBasisError,
)
from mubeve.linalg import DensityMatrix, hermitian_eigenvalues, shannon_entropy
from mubeve.rng import SplitMix64, gram_schmidt_unitary
from mubeve.symmetrize import (
    purification_vectors,
    sigma_matrix,
    sigma_spectrum_check,
    symmetrize,
)
from mubeve.zoo import AttackSpec, make_attack, random_attack

# the package re-exports the function ``symmetrize`` under the module's name
symmetrize_module = importlib.import_module("mubeve.symmetrize")

# frozen from a 50-digit evaluation of h2(0.01) + 3 * 0.01
COROLLARY_001_N3 = 0.11079313589591118


def binary_entropy(p):
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def basis_projectors(d):
    eye = np.eye(d, dtype=complex)
    return Povm(tuple(np.outer(eye[:, k], eye[:, k]) for k in range(d)))


def random_basis_projectors(d, stream):
    """Rank-1 projectors onto the columns of the next random orthonormal
    basis drawn from ``stream``, built and validated as a full POVM."""
    basis = gram_schmidt_unitary(stream.gaussian_matrix(d, d))
    return Povm(tuple(np.outer(basis[:, k], basis[:, k].conj()) for k in range(d)))


def overlap_pair_ensemble(theta):
    v0 = np.array([1.0, 0.0], dtype=complex)
    v1 = np.array([np.cos(theta), np.sin(theta)], dtype=complex)
    return Ensemble.uniform([DensityMatrix.pure(v0), DensityMatrix.pure(v1)])


class TestEnsemblePovmTypes:
    def test_priors_must_normalize(self):
        with pytest.raises(OutOfRangeError):
            Ensemble([0.6, 0.6], (DensityMatrix(np.eye(2) / 2),) * 2)

    @pytest.mark.parametrize("p", [[np.nan, np.nan], [np.nan, 1.0]])
    def test_priors_must_be_finite(self, p):
        with pytest.raises(OutOfRangeError):
            Ensemble(p, (DensityMatrix(np.eye(2) / 2),) * 2)

    def test_states_must_share_dimension(self):
        with pytest.raises(Exception):
            Ensemble.uniform([
                DensityMatrix(np.eye(2) / 2),
                DensityMatrix(np.eye(4) / 4),
            ])

    def test_povm_completeness(self):
        with pytest.raises(InvalidPovmError):
            Povm((np.eye(2) * 0.4, np.eye(2) * 0.4))

    def test_povm_psd(self):
        with pytest.raises(InvalidPovmError):
            Povm((np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])))

    def test_povm_hermitian(self):
        bad = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(InvalidPovmError):
            Povm((bad, np.eye(2) - bad))


class TestHolevoChi:
    def test_orthogonal_pure_states(self):
        ens = overlap_pair_ensemble(math.pi / 2)
        assert holevo_chi(ens) == pytest.approx(1.0, abs=1e-12)

    def test_identical_states(self):
        ens = Ensemble.uniform([DensityMatrix(np.eye(2) / 2)] * 4)
        assert holevo_chi(ens) == pytest.approx(0.0, abs=1e-12)

    def test_overlap_closed_form(self):
        for theta in (0.2, 0.9, 1.3):
            ens = overlap_pair_ensemble(theta)
            expected = binary_entropy((1 + math.cos(theta)) / 2)
            assert holevo_chi(ens) == pytest.approx(expected, abs=1e-10)

    def test_general_priors(self):
        ens = Ensemble(
            [0.3, 0.7],
            (DensityMatrix.pure([1.0, 0.0]), DensityMatrix.pure([0.0, 1.0])),
        )
        # orthogonal pure states: chi equals the prior entropy
        expected = -0.3 * math.log2(0.3) - 0.7 * math.log2(0.7)
        assert holevo_chi(ens) == pytest.approx(expected, abs=1e-10)


class TestMutualInformation:
    def test_identical_states_give_zero(self):
        ch = make_attack(AttackSpec("identity", 2))
        ens = Ensemble.uniform([eve_state(ch, i) for i in range(4)])
        assert mutual_information_of_measurement(
            ens, basis_projectors(1)
        ) == pytest.approx(0.0, abs=1e-12)

    def test_pointer_basis_reads_intercept_resend(self):
        ch = make_attack(AttackSpec("intercept_resend", 1))
        ens = Ensemble.uniform([eve_state(ch, i) for i in range(2)])
        assert mutual_information_of_measurement(
            ens, basis_projectors(2)
        ) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_probe_pair(self):
        ens = overlap_pair_ensemble(math.pi / 2)
        assert mutual_information_of_measurement(
            ens, basis_projectors(2)
        ) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        ens = overlap_pair_ensemble(0.3)
        with pytest.raises(InvalidPovmError):
            mutual_information_of_measurement(ens, basis_projectors(3))

    def test_matches_direct_expansion_for_uniform_priors(self):
        # oracle: I = 2**-N sum_a sum_i p(a|i) (log p(a|i) - log sum_j p(a|j)) + N
        ch = random_attack(1, 2, 314)
        states = [eve_state(ch, i) for i in range(2)]
        ens = Ensemble.uniform(states)
        povm = random_basis_projectors(2, SplitMix64(11))
        direct = 0.0
        n = 1
        for elem in povm.elements:
            cond = [max(np.trace(elem @ s.matrix).real, 0.0) for s in states]
            total = sum(cond)
            for p in cond:
                if p > 0.0:
                    direct += (1 / 2**n) * p * (math.log2(p) - math.log2(total))
        direct += n
        got = mutual_information_of_measurement(ens, povm)
        assert got == pytest.approx(direct, abs=1e-10)

    def test_bounded_by_label_entropy(self):
        stream = SplitMix64(77)
        for seed in range(5):
            ch = random_attack(1, 4, 600 + seed)
            ens = Ensemble.uniform([eve_state(ch, i) for i in range(2)])
            povm = random_basis_projectors(4, stream)
            val = mutual_information_of_measurement(ens, povm)
            assert -1e-12 <= val <= 1.0 + 1e-9


class TestPrettyGoodMeasurement:
    def test_orthogonal_pure_states_give_projectors(self):
        ens = overlap_pair_ensemble(math.pi / 2)
        povm = pretty_good_measurement(ens)
        assert np.max(np.abs(povm.elements[0] - np.diag([1.0, 0.0]))) < 1e-10
        assert np.max(np.abs(povm.elements[1] - np.diag([0.0, 1.0]))) < 1e-10

    def test_single_state_gives_identity(self):
        ens = Ensemble([1.0], (DensityMatrix.pure([1.0, 0.0]),))
        povm = pretty_good_measurement(ens)
        assert len(povm.elements) == 1
        assert np.max(np.abs(povm.elements[0] - np.eye(2))) < 1e-12

    def test_two_state_success_matches_helstrom(self):
        # oracle: optimal two-state discrimination success probability is
        # 1/2 + (1/2) * trace norm of (p0 rho0 - p1 rho1)
        for theta in (0.3, 0.7, 1.1, 1.5):
            ens = overlap_pair_ensemble(theta)
            povm = pretty_good_measurement(ens)
            success = sum(
                p * np.trace(e @ s.matrix).real
                for p, e, s in zip(ens.priors, povm.elements, ens.states)
            )
            diff = 0.5 * ens.states[0].matrix - 0.5 * ens.states[1].matrix
            trace_norm = float(np.sum(np.abs(hermitian_eigenvalues(diff))))
            helstrom = 0.5 + 0.5 * trace_norm
            assert success == pytest.approx(helstrom, abs=1e-10)
            assert success == pytest.approx((1 + math.sin(theta)) / 2, abs=1e-10)


class TestAccessibleInfoLowerBound:
    def test_identity_zero(self):
        ch = make_attack(AttackSpec("identity", 1))
        ens = Ensemble.uniform([eve_state(ch, i) for i in range(2)])
        assert accessible_info_lower_bound(ens, 8, 0) == pytest.approx(0.0, abs=1e-12)

    def test_intercept_resend_reaches_one_bit(self):
        ch = make_attack(AttackSpec("intercept_resend", 1))
        ens = Ensemble.uniform([eve_state(ch, i) for i in range(2)])
        assert accessible_info_lower_bound(ens, 4, 0) == pytest.approx(1.0, abs=1e-6)

    def test_never_exceeds_holevo(self):
        for seed in range(6):
            ch = random_attack(1, 2, 70 + seed)
            ens = Ensemble.uniform([eve_state(ch, i) for i in range(2)])
            assert (
                accessible_info_lower_bound(ens, 12, seed)
                <= holevo_chi(ens) + 1e-9
            )

    def test_monotone_in_samples(self):
        ch = random_attack(1, 4, 1234)
        ens = Ensemble.uniform([eve_state(ch, i) for i in range(2)])
        values = [
            accessible_info_lower_bound(ens, s, 5) for s in (0, 2, 4, 8, 16)
        ]
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
        # oracle: the same bases from the same stream, drawn one at a time,
        # each built and validated as a projector POVM and measured by the
        # public route
        ch = random_attack(n, eve_dim, seed)
        ens = Ensemble.uniform([eve_state(ch, i) for i in range(ch.dim)])
        stream = SplitMix64(seed + 100)
        oracle = max(
            [mutual_information_of_measurement(ens, pretty_good_measurement(ens))]
            + [
                mutual_information_of_measurement(
                    ens, random_basis_projectors(eve_dim, stream)
                )
                for _ in range(samples)
            ]
        )
        got = accessible_info_lower_bound(ens, samples, seed + 100)
        assert abs(got - oracle) <= 1e-12

    def test_negative_samples_rejected(self):
        ens = overlap_pair_ensemble(0.4)
        with pytest.raises(OutOfRangeError):
            accessible_info_lower_bound(ens, -1, 0)


PGM_CELLS = [(1, 2, 3), (2, 2, 8), (1, 8, 21), (2, 4, 5), (1, 64, 9)]


class TestPgmStack:
    """The audit builds the pretty good measurement as one stack and checks
    it once; the validated ``Povm`` route is the oracle."""

    @pytest.mark.parametrize("n, eve_dim, seed", PGM_CELLS)
    def test_matches_validated_povm(self, n, eve_dim, seed):
        ch = random_attack(n, eve_dim, seed)
        ens = Ensemble.uniform([eve_state(ch, i) for i in range(ch.dim)])
        rho = eve_states(ch)
        stack = bounds._pgm_stack(ens.priors, rho)
        bounds._check_povm_stack(stack)
        h_label = shannon_entropy(ens.priors)
        got = bounds._measured_information(ens.priors, h_label, stack, rho)
        want = mutual_information_of_measurement(ens, pretty_good_measurement(ens))
        assert abs(got - want) <= 1e-12

    def projectors(self, d):
        return np.stack([np.diag(np.eye(d)[k]).astype(complex) for k in range(d)])

    def test_negative_eigenvalue_in_one_element(self):
        # completeness still holds: the defect moves weight between elements
        stack = self.projectors(4)
        stack[2, 0, 0] -= 1e-6
        stack[0, 0, 0] += 1e-6
        with pytest.raises(InvalidPovmError, match="positive semidefinite"):
            bounds._check_povm_stack(stack)
        with pytest.raises(InvalidPovmError, match="positive semidefinite"):
            Povm(tuple(stack))

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
        rho = eve_states(random_attack(1, 2, 4))
        rho[1, 0, 0] = np.nan
        with pytest.raises(EigensolverError):
            bounds._pgm_stack(np.full(2, 0.5), rho)


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

    @settings(max_examples=40, deadline=None)
    @given(
        # every n the parser accepts, total dimension 2**n * eve_dim <= 64
        cell=st.integers(1, 4).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(1, 64 >> n))
        ),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_bound_chain_property(self, cell, seed):
        n, eve_dim = cell
        rep = audit_attack(random_attack(n, eve_dim, seed), 4, seed)
        assert rep.slack_main >= -1e-9
        assert rep.slack_measured >= -1e-9
        assert rep.i_lower <= rep.chi_orig + 1e-9
        # data processing: reading the shift register recovers the
        # original ensemble, so symmetrizing cannot lose information
        assert rep.chi_orig <= rep.chi_sym + 1e-9

    def test_requires_basis_b(self):
        from mubeve.channel import to_conjugate_basis

        conj = to_conjugate_basis(make_attack(AttackSpec("identity", 1)))
        with pytest.raises(ValueError) as info:
            audit_attack(conj, 4, 0)
        assert isinstance(info.value, WrongBasisError)
        assert isinstance(info.value, MubeveError)

    def test_swapped_holevo_values_violate_chain(self, swap_holevo):
        # chi_sym - chi_orig is about 0.7 here; only the new link sees the swap
        with pytest.raises(TheoremViolation) as info:
            audit_attack(random_attack(2, 2, 11), 4, 0)
        rep = info.value.report
        assert rep.chi_orig > rep.chi_sym + 1e-9
        assert rep.slack_main >= -1e-9

    def test_builds_no_povm_and_no_density_matrix(self, monkeypatch):
        # every check runs on stacks; the spectrum identity reads the Fourier
        # spectrum off the Walsh table, without a sigma Gram state
        built = {"Povm": 0, "DensityMatrix": 0}
        for cls in (Povm, DensityMatrix):
            original = cls.__post_init__

            def counting(self, original=original, name=cls.__name__):
                built[name] += 1
                original(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        audit_attack(random_attack(3, 2, 19), 16, 2)
        assert built == {"Povm": 0, "DensityMatrix": 0}

    def test_builds_no_symmetrized_table(self, monkeypatch):
        # chi_sym and the sigma check come from the original table; the
        # dense symmetrized route is only the reference
        called = {"AttackChannel": 0}
        original_init = AttackChannel.__post_init__

        def counting_init(self):
            called["AttackChannel"] += 1
            original_init(self)

        monkeypatch.setattr(AttackChannel, "__post_init__", counting_init)
        for name in ("symmetrize", "purification_vectors", "sigma_matrix"):
            called[name] = 0
            original = getattr(symmetrize_module, name)

            def counting(*args, original=original, name=name):
                called[name] += 1
                return original(*args)

            monkeypatch.setattr(symmetrize_module, name, counting)
        ch = random_attack(3, 2, 19)
        called["AttackChannel"] = 0
        audit_attack(ch, 4, 2)
        assert called == {
            "AttackChannel": 0, "symmetrize": 0,
            "purification_vectors": 0, "sigma_matrix": 0,
        }

    def test_checks_each_distribution_once(self, monkeypatch):
        # the probability rule runs once per validated array: the error
        # distribution, the four spectrum stacks and the Fourier spectrum;
        # the measured search scores with the unchecked entropy core
        checked = []
        linalg = importlib.import_module("mubeve.linalg")
        rule = linalg._check_probabilities

        def recording(p, error, *rest):
            checked.append((p, error.__name__))
            rule(p, error, *rest)

        for module in (linalg, bounds, symmetrize_module,
                       importlib.import_module("mubeve.channel")):
            if hasattr(module, "_check_probabilities"):
                monkeypatch.setattr(module, "_check_probabilities", recording)
        entropy_calls = []
        for name in ("shannon_entropies", "shannon_entropy"):
            monkeypatch.setattr(
                linalg, name, lambda *args: entropy_calls.append(args)
            )
        audit_attack(random_attack(3, 2, 19), 16, 2)
        assert [name for _, name in checked] == [
            "NotADistributionError",
            "InvalidStateError", "InvalidStateError",   # kraus_holevo_chi
            "InvalidStateError", "InvalidStateError",   # symmetrized_holevo_chi
            "TranslationInvarianceError",               # fourier_spectrum
        ]
        assert len({id(p) for p, _ in checked}) == len(checked)
        assert entropy_calls == []

    def test_inflated_i_lower_violates_chain(self, monkeypatch):
        ch = random_attack(2, 2, 11)
        chi_orig = audit_attack(ch, 4, 0).chi_orig
        # the audit runs the measured search on the state stack directly
        monkeypatch.setattr(
            bounds, "_accessible_info", lambda priors, rho, s, seed: chi_orig + 1e-6
        )
        with pytest.raises(TheoremViolation) as info:
            audit_attack(ch, 4, 0)
        assert info.value.report.slack_measured >= -1e-9


def dense_chi(ch):
    """Holevo quantity of the validated dense apparatus ensemble of ``ch``."""
    return holevo_chi(Ensemble.uniform(eve_state(ch, i) for i in range(ch.dim)))


class TestKrausHolevo:
    """``audit_attack`` reads both Holevo quantities off Kraus Gram spectra
    and the Fourier spectrum off the error-pattern table; the dense
    ``holevo_chi`` route and the enlarged table are the oracle."""

    def assert_matches_dense(self, ch):
        rep = audit_attack(ch, 0, 0)
        sym = symmetrize(ch)
        assert abs(rep.chi_orig - dense_chi(ch)) <= 1e-12
        assert abs(rep.chi_sym - dense_chi(sym)) <= 1e-12
        assert kraus_holevo_chi(ch.kraus) == rep.chi_orig
        assert abs(rep.chi_sym - kraus_holevo_chi(sym.kraus)) <= 1e-12
        dense = sigma_matrix(purification_vectors(sym))
        assert np.max(np.abs(rep.fourier_eigenvalues - dense.lambdas)) <= 1e-12
        ed = xor_error_distribution(ch)
        assert abs(rep.spectrum_deviation - sigma_spectrum_check(dense, ed)) <= 1e-12

    @pytest.mark.parametrize("n, eve_dim", [(1, 1), (1, 2), (2, 1), (2, 4), (3, 2), (1, 8)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense_oracle(self, n, eve_dim, seed):
        self.assert_matches_dense(random_attack(n, eve_dim, 7100 + seed))

    def test_matches_dense_oracle_at_declared_limit(self):
        self.assert_matches_dense(random_attack(4, 32, 7200))

    def test_matches_dense_oracle_at_largest_apparatus(self):
        self.assert_matches_dense(random_attack(1, 256, 7300))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_identity_is_exactly_zero(self, n):
        # the symmetrized table is square per input here: the tie that must
        # take the dense side, where the spectrum is exactly one 1
        rep = audit_attack(make_attack(AttackSpec("identity", n)), 0, 0)
        assert rep.chi_orig == 0.0
        assert rep.chi_sym == 0.0
        assert rep.slack_main == 0.0
