"""Information quantities and the audit bound chain.

An audit of one attack compares three routes to the eavesdropper's
information gain about basis-b strings:

* measured lower bounds (pretty good measurement plus random projective
  bases) on the accessible information;
* Holevo quantities of the original and symmetrized state ensembles;
* the entropy of the receiver's conjugate-basis error pattern, which
  upper-bounds all of the above.

The report also carries the two closed-form right-hand sides built from
the total error probability alone, for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidPovmError,
    OutOfRangeError,
    TheoremViolation,
)
from .channel import (
    AttackChannel,
    ErrorDistribution,
    eve_states,
    require_basis_b,
    xor_error_distribution,
)
from .linalg import (
    TAU_HERM,
    TAU_PSD,
    DensityMatrix,
    _min_eigenvalue_at_least,
    hermitian_eigendecomposition,
    hermitian_residual,
    mixture_spectra,
    shannon_entropies,
    shannon_entropy,
    spectral_entropies,
    von_neumann_entropy,
)
from .rng import SplitMix64, gram_schmidt_unitary
from .symmetrize import (
    purification_vectors,
    sigma_matrix,
    sigma_spectrum_check,
    symmetrize,
)

_SLACK_TOL = 1e-9
_POVM_COMPLETENESS_TOL = 1e-8
_PGM_SUPPORT_CUTOFF = 1e-12
_BLOCK_ENTRIES = 2**16  # basis-matrix entries per block of the random search


@dataclass(frozen=True)
class Ensemble:
    """Prior-weighted family of density matrices of a common dimension."""

    priors: np.ndarray
    states: tuple[DensityMatrix, ...]

    def __post_init__(self):
        p = np.array(self.priors, dtype=float).reshape(-1)
        states = tuple(self.states)
        if p.size != len(states) or not states:
            raise DimensionMismatchError("priors and states lengths disagree")
        if (
            not np.isfinite(p).all()
            or abs(float(p.sum()) - 1.0) > 1e-9
            or float(p.min()) < -TAU_PSD
        ):
            raise OutOfRangeError("priors are not a probability distribution")
        d = states[0].dim
        if any(s.dim != d for s in states):
            raise DimensionMismatchError("states have mixed dimensions")
        p.setflags(write=False)
        object.__setattr__(self, "priors", p)
        object.__setattr__(self, "states", states)

    @property
    def dim(self) -> int:
        return self.states[0].dim

    @classmethod
    def uniform(cls, states) -> "Ensemble":
        states = tuple(states)
        return cls(np.full(len(states), 1.0 / len(states)), states)

    def average(self) -> np.ndarray:
        return sum(
            p * s.matrix for p, s in zip(self.priors, self.states)
        )


@dataclass(frozen=True)
class Povm:
    """Positive operators summing to the identity."""

    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        elems = tuple(np.asarray(e, dtype=complex) for e in self.elements)
        if not elems:
            raise InvalidPovmError("POVM needs at least one element")
        d = elems[0].shape[0]
        if any(e.shape != (d, d) for e in elems):
            raise InvalidPovmError("elements have mixed dimensions")
        stack = np.array(elems)
        _check_povm_stack(stack)
        stack.setflags(write=False)
        object.__setattr__(self, "elements", tuple(stack))

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]


def _check_povm_stack(elements: np.ndarray) -> None:
    """Validate a stack of POVM elements ``(count, d, d)`` in one pass:
    Hermitian within TAU_HERM, no eigenvalue below -TAU_PSD (one batched
    Cholesky, eigenvalues only on failure) and completeness within 1e-8.
    Raises InvalidPovmError, or EigensolverError on non-finite entries."""
    if hermitian_residual(elements) > TAU_HERM:
        raise InvalidPovmError("element is not Hermitian")
    if not _min_eigenvalue_at_least(elements, TAU_PSD):
        raise InvalidPovmError("element is not positive semidefinite")
    d = elements.shape[-1]
    res = float(np.max(np.abs(elements.sum(axis=0) - np.eye(d))))
    if not res <= _POVM_COMPLETENESS_TOL:
        raise InvalidPovmError(
            f"completeness residual {res:.3e} exceeds {_POVM_COMPLETENESS_TOL}"
        )


def holevo_chi(ens: Ensemble) -> float:
    """Entropy of the ensemble average minus the average entropy, in bits."""
    avg = ens.average()
    mixed = von_neumann_entropy(avg)
    individual = sum(
        p * von_neumann_entropy(s) for p, s in zip(ens.priors, ens.states)
    )
    return float(mixed - individual) + 0.0  # normalize -0.0


def kraus_holevo_chi(kraus) -> float:
    """Holevo quantity of the uniform ensemble of apparatus states
    ``rho_i = sum_j |K_ij><K_ij|`` of a Kraus table ``kraus[i, j]``.

    Equals ``holevo_chi(Ensemble.uniform(eve_state(ch, i) ...))`` for
    ``kraus = ch.kraus``, but no dense state is built: the state spectra
    and the spectrum of the average (all ``d**2`` vectors at weight
    ``1/d``) come from ``mixture_spectra``, which eigensolves the smaller
    side of each Gram/ensemble pair and checks every spectrum.  The value
    is the mean of ``S(avg) - S(rho_i)``, so an ensemble of identical
    states, such as the symmetrized identity attack, reads exactly 0.
    """
    k = np.asarray(kraus, dtype=complex)
    d = k.shape[0]
    individual = spectral_entropies(mixture_spectra(k))
    mixed = spectral_entropies(mixture_spectra(k.reshape(1, d * d, -1), 1.0 / d))
    return float(np.mean(mixed - individual)) + 0.0  # normalize -0.0


def _label_information(priors: np.ndarray, cond: np.ndarray) -> np.ndarray:
    """``H(A) + H(E) - H(A, E)`` in bits for label priors ``p(i)`` and
    outcome probabilities ``cond[..., i, a] = p(a|i)``, one value per
    leading index.

    Negative rounding in ``cond`` is clipped to 0, and each joint table is
    renormalized to absorb measurement completeness slack.
    """
    joint = priors[:, None] * np.clip(cond, 0.0, None)
    joint = joint / joint.sum(axis=(-2, -1), keepdims=True)
    h_label = shannon_entropy(priors)
    h_outcome = shannon_entropies(joint.sum(axis=-2))
    h_joint = shannon_entropies(joint.reshape(*cond.shape[:-2], -1))
    return h_label + h_outcome - h_joint


def _states(ens: Ensemble) -> np.ndarray:
    return np.stack([s.matrix for s in ens.states])


def _measured_information(priors, elements, rho) -> float:
    """Mutual information of measuring the stack of POVM elements on the
    stack of states, ``p(a|i) = tr(X_a rho_i)``."""
    cond = np.einsum("axy,iyx->ia", elements, rho)
    return float(_label_information(priors, cond.real))


def mutual_information_of_measurement(ens: Ensemble, x: Povm) -> float:
    """Mutual information in bits between the ensemble label and the
    measurement outcome, ``H(A) + H(E) - H(A, E)``."""
    if x.dim != ens.dim:
        raise InvalidPovmError(
            f"POVM dimension {x.dim} does not match ensemble dimension {ens.dim}"
        )
    return _measured_information(ens.priors, np.stack(x.elements), _states(ens))


def _pgm_stack(priors: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Elements of the pretty good measurement of the ensemble with label
    priors ``priors`` and state stack ``rho[i]``, as one checked stack.

    ``X = S (p rho) S + C / count`` for every label at once, where ``S`` is
    the inverse square root of the average on its support and ``C`` the
    projector onto the complement.  The Hermitian part is exact by
    construction; positivity and completeness are checked once for the
    whole stack (``_check_povm_stack``).
    """
    weighted = priors[:, None, None] * rho
    spec = hermitian_eigendecomposition(weighted.sum(axis=0))
    keep = spec.eigenvalues > _PGM_SUPPORT_CUTOFF
    vk = spec.eigenvectors[:, keep]
    inv_sqrt = (vk * (1.0 / np.sqrt(spec.eigenvalues[keep]))) @ vk.conj().T
    complement = np.eye(rho.shape[-1]) - vk @ vk.conj().T
    x = inv_sqrt @ weighted @ inv_sqrt + complement / len(priors)
    x = 0.5 * (x + x.conj().swapaxes(-1, -2))
    _check_povm_stack(x)
    return x


def pretty_good_measurement(ens: Ensemble) -> Povm:
    """Square-root measurement of an ensemble.

    ``X_i = avg^(-1/2) (p_i rho_i) avg^(-1/2)`` with the inverse square
    root taken on the support (eigenvalues below 1e-12 dropped); the
    complement of the support is split evenly across the elements so the
    family is complete.
    """
    return Povm(tuple(_pgm_stack(ens.priors, _states(ens))))


def _accessible_info(priors: np.ndarray, rho: np.ndarray, samples: int,
                     seed: int) -> float:
    """``accessible_info_lower_bound`` of the ensemble with label priors
    ``priors`` and state stack ``rho[i]``; the audit calls it on
    ``eve_states`` directly."""
    if samples < 0:
        raise OutOfRangeError("samples must be nonnegative")
    best = _measured_information(priors, _pgm_stack(priors, rho), rho)
    d = rho.shape[-1]
    block = max(1, _BLOCK_ENTRIES // d**2)
    stream = SplitMix64(seed)
    for start in range(0, samples, block):
        m = min(block, samples - start)
        bases = gram_schmidt_unitary(stream.gaussian_matrix(m * d, d).reshape(m, d, d))
        cond = np.einsum("sxa,sixa->sia", bases.conj(), rho @ bases[:, None])
        best = max(best, float(_label_information(priors, cond.real).max()))
    return best


def accessible_info_lower_bound(ens: Ensemble, samples: int, seed: int) -> float:
    """Best measured mutual information over the pretty good measurement
    and ``samples`` seeded random orthonormal-basis measurements.

    Monotone nondecreasing in ``samples`` for a fixed seed, since the
    bases are drawn from one sequential stream.  Bases are drawn,
    orthonormalized and scored in blocks of at most ``2**16`` matrix
    entries; a block draw equals the same bases drawn one at a time.  Each
    basis is orthonormal by construction, so ``p(a|i) = <b_a|rho_i|b_a>``
    is read off directly rather than through a validated projector ``Povm``.
    """
    return _accessible_info(ens.priors, _states(ens), samples, seed)


def xor_entropy_bound(ed: ErrorDistribution) -> float:
    """Entropy in bits of the conjugate-basis error pattern."""
    return shannon_entropy(ed.probs)


def boykin_bound(ed: ErrorDistribution) -> float:
    """Square-root error bound, ``4 n sqrt(delta)``."""
    delta = min(max(ed.delta, 0.0), 1.0)
    return 4.0 * ed.n * math.sqrt(delta)


def corollary_bound(delta: float, n: int) -> float:
    """Closed-form entropy bound from the total error probability alone,
    ``h2(delta) + n * delta`` with the convention 0 log 0 = 0."""
    if not 0.0 <= delta <= 1.0:
        raise OutOfRangeError(f"delta {delta} outside [0, 1]")
    h2 = 0.0
    if 0.0 < delta < 1.0:
        h2 = -delta * math.log2(delta) - (1.0 - delta) * math.log2(1.0 - delta)
    return h2 + n * delta


@dataclass(frozen=True)
class BoundsReport:
    """Complete audit of one attack: disturbance, information bounds and
    their slacks, plus the spectrum-identity residual.

    ``fourier_eigenvalues`` is the Fourier spectrum of the symmetrized
    Gram profile that the residual compares with ``error_dist``; it is
    kept for inspection and is not a report column.
    """

    n: int
    eve_dim: int
    delta: float
    error_dist: ErrorDistribution
    h_xor: float
    chi_orig: float
    chi_sym: float
    i_lower: float
    boykin_rhs: float
    corollary_rhs: float
    slack_main: float
    slack_measured: float
    spectrum_deviation: float
    fourier_eigenvalues: np.ndarray

    def __post_init__(self):
        entropic = (
            self.h_xor, self.chi_orig, self.chi_sym, self.i_lower,
            self.boykin_rhs, self.corollary_rhs,
        )
        if min(entropic) < -1e-9:
            raise OutOfRangeError("negative entropic field in report")
        if not -1e-9 <= self.delta <= 1.0 + 1e-9:
            raise OutOfRangeError(f"delta {self.delta} outside [0, 1]")


def audit_attack(ch: AttackChannel, samples: int, seed: int) -> BoundsReport:
    """Run the full bound chain on one attack.

    Certifies, each to 1e-9, ``i_lower <= chi_orig <= chi_sym <= h_xor``,
    ``i_lower <= h_xor`` and the Gram-spectrum identity.  Raises
    TheoremViolation (carrying the report) if one fails, which can only
    mean an implementation bug.  Both Holevo quantities come from Kraus
    Gram spectra (``kraus_holevo_chi``), which also checks the spectra of
    the original states; the measured search runs on their unvalidated
    stack (``eve_states``) and checks its pretty good measurement once.
    """
    require_basis_b(ch)

    ed = xor_error_distribution(ch)
    delta_raw = ed.delta
    h_xor = xor_entropy_bound(ed)

    chi_orig = kraus_holevo_chi(ch.kraus)
    sym = symmetrize(ch)
    chi_sym = kraus_holevo_chi(sym.kraus)

    priors = np.full(ch.dim, 1.0 / ch.dim)
    i_lower = _accessible_info(priors, eve_states(ch), samples, seed)

    sa = sigma_matrix(purification_vectors(sym))
    spectrum_deviation = sigma_spectrum_check(sa, ed)

    report = BoundsReport(
        n=ch.n,
        eve_dim=ch.eve_dim,
        delta=delta_raw,
        error_dist=ed,
        h_xor=h_xor,
        chi_orig=chi_orig,
        chi_sym=chi_sym,
        i_lower=i_lower,
        boykin_rhs=boykin_bound(ed),
        corollary_rhs=corollary_bound(min(max(delta_raw, 0.0), 1.0), ch.n),
        slack_main=h_xor - chi_sym,
        slack_measured=h_xor - i_lower,
        spectrum_deviation=spectrum_deviation,
        fourier_eigenvalues=sa.lambdas,
    )
    if (
        report.slack_main < -_SLACK_TOL
        or report.slack_measured < -_SLACK_TOL
        or i_lower - chi_orig > _SLACK_TOL
        or chi_orig - chi_sym > _SLACK_TOL
        or report.spectrum_deviation > _SLACK_TOL
    ):
        raise TheoremViolation("audited bounds violated beyond tolerance", report)
    return report
