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
    NotADistributionError,
    OutOfRangeError,
    TheoremViolation,
)
from .channel import (
    AttackChannel,
    ErrorDistribution,
    eve_states,
    xor_error_distribution,
)
from .linalg import (
    TAU_HERM,
    TAU_POVM,
    TAU_PSD,
    TAU_SLACK,
    TAU_SUPPORT,
    DensityMatrix,
    _check_probabilities,
    _eigh,
    _entropy_bits,
    _min_eigenvalue_at_least,
    density_spectra,
    hermitian_residual,
    mixture_spectra,
    sign_grid,
    spectral_entropies,
    von_neumann_entropy,
    xor_regroup,
)
from .rng import SplitMix64, gram_schmidt_unitary
from .symmetrize import error_patterns, fourier_spectrum

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
        _check_probabilities(p, OutOfRangeError, "priors")
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
    Cholesky, eigenvalues only on failure) and completeness within TAU_POVM.
    Raises InvalidPovmError, or EigensolverError on non-finite entries."""
    if hermitian_residual(elements) > TAU_HERM:
        raise InvalidPovmError("element is not Hermitian")
    if not _min_eigenvalue_at_least(elements, TAU_PSD):
        raise InvalidPovmError("element is not positive semidefinite")
    d = elements.shape[-1]
    res = float(np.max(np.abs(elements.sum(axis=0) - np.eye(d))))
    if not res <= TAU_POVM:
        raise InvalidPovmError(f"completeness residual {res:.3e} exceeds {TAU_POVM}")


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


def symmetrized_holevo_chi(patterns) -> float:
    """Holevo quantity of the shift-symmetrized attack, computed from the
    original table regrouped by error pattern, ``patterns =
    error_patterns(ch.kraus)``.

    Equals ``kraus_holevo_chi(symmetrize(ch).kraus)``, but the enlarged
    table is never built.  The symmetrized states are XOR-covariant, so
    all share the nonzero spectrum of one ``2**n x 2**n`` Gram matrix
    ``G0[j, k] = 2**-n sum_m (-1)**(m.(j^k)) <P[k, m]|P[j, m]>``, taken on
    this side even when ``eve_dim = 1`` ties it.  Their average is
    block-circulant over the shift register, so its spectrum is the union
    over l of the spectra of ``B_l = 4**-n sum_c |W[c, l^c]><W[c, l^c]|``
    with the Walsh transform ``W[c, x] = sum_a (-1)**(x.a) P[c, a]``: 2**n
    eigenproblems of size ``min(2**n, eve_dim)``.  Both spectra get the
    checks of ``density_spectra``, the average's as one union.
    """
    p = np.asarray(patterns, dtype=complex)
    d = p.shape[0]
    n = d.bit_length() - 1
    s = sign_grid(n)
    signed = (s[:, :, None] * p).reshape(d, -1)   # row j: (-1)**(m.j) P[j, m]
    state = density_spectra((1.0 / d) * (signed @ signed.conj().T))
    walsh = s @ p                                 # walsh[c, x] = W[c, x]
    blocks = xor_regroup(walsh)                   # blocks[l, c] = W[c, l ^ c]
    average = mixture_spectra(blocks, 1.0 / d**2, union=True)
    chi = spectral_entropies(average.reshape(-1)) - spectral_entropies(state)
    return float(chi) + 0.0  # normalize -0.0


def _label_information(priors, h_label, cond) -> np.ndarray:
    """``H(A) + H(E) - H(A, E)`` in bits for label priors ``p(i)``, their
    entropy ``h_label`` and outcome probabilities ``cond[..., i, a] =
    p(a|i)``, one value per leading index.

    Negative rounding in ``cond`` is clipped to 0, and each joint table is
    renormalized to absorb measurement completeness slack, so only its
    finiteness needs a check.
    """
    joint = priors[:, None] * np.clip(cond, 0.0, None)
    joint = joint / joint.sum(axis=(-2, -1), keepdims=True)
    if not np.isfinite(joint).all():
        raise NotADistributionError("measured joint table has non-finite entries")
    h_outcome = _entropy_bits(joint.sum(axis=-2))
    h_joint = _entropy_bits(joint.reshape(*cond.shape[:-2], -1))
    return h_label + h_outcome - h_joint


def _states(ens: Ensemble) -> np.ndarray:
    return np.stack([s.matrix for s in ens.states])


def _measured_information(priors, h_label, elements, rho) -> float:
    """Mutual information of measuring the stack of POVM elements on the
    stack of states, ``p(a|i) = tr(X_a rho_i)``."""
    cond = np.einsum("axy,iyx->ia", elements, rho)
    return float(_label_information(priors, h_label, cond.real))


def mutual_information_of_measurement(ens: Ensemble, x: Povm) -> float:
    """Mutual information in bits between the ensemble label and the
    measurement outcome, ``H(A) + H(E) - H(A, E)``."""
    if x.dim != ens.dim:
        raise InvalidPovmError(
            f"POVM dimension {x.dim} does not match ensemble dimension {ens.dim}"
        )
    return _measured_information(ens.priors, float(_entropy_bits(ens.priors)),
                                 np.stack(x.elements), _states(ens))


def _pgm_stack(priors: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Elements of the pretty good measurement of the ensemble with label
    priors ``priors`` and state stack ``rho[i]``, as one unchecked stack.

    ``X = S (p rho) S + C / count`` for every label at once, where ``S`` is
    the inverse square root of the average on its support and ``C`` the
    projector onto the complement.  The Hermitian part is exact by
    construction; callers check positivity and completeness once for the
    whole stack (``_check_povm_stack``, or ``Povm``).
    """
    weighted = priors[:, None, None] * rho
    w, v = _eigh(weighted.sum(axis=0), want_vectors=True)  # Hermitian by construction
    w, v = w[::-1], v[:, ::-1]                               # descending
    keep = w > TAU_SUPPORT
    vk = v[:, keep]
    inv_sqrt = (vk * (1.0 / np.sqrt(w[keep]))) @ vk.conj().T
    complement = np.eye(rho.shape[-1]) - vk @ vk.conj().T
    x = inv_sqrt @ weighted @ inv_sqrt + complement / len(priors)
    return 0.5 * (x + x.conj().swapaxes(-1, -2))


def pretty_good_measurement(ens: Ensemble) -> Povm:
    """Square-root measurement of an ensemble.

    ``X_i = avg^(-1/2) (p_i rho_i) avg^(-1/2)`` with the inverse square
    root taken on the support (eigenvalues up to TAU_SUPPORT dropped); the
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
    h_label = float(_entropy_bits(priors))
    pgm = _pgm_stack(priors, rho)
    _check_povm_stack(pgm)
    best = _measured_information(priors, h_label, pgm, rho)
    d = rho.shape[-1]
    block = max(1, _BLOCK_ENTRIES // d**2)
    stream = SplitMix64(seed)
    for start in range(0, samples, block):
        m = min(block, samples - start)
        bases = gram_schmidt_unitary(stream.gaussian_matrix(m * d, d).reshape(m, d, d))
        cond = np.einsum("sxa,sixa->sia", bases.conj(), rho @ bases[:, None])
        best = max(best, float(_label_information(priors, h_label, cond.real).max()))
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
    """Entropy in bits of the conjugate-basis error pattern (checked by ``ed``)."""
    return float(_entropy_bits(ed.probs))


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
    Gram profile, read off the Walsh table (``fourier_spectrum``), that
    the residual compares with ``error_dist``; it is kept for inspection
    and is not a report column.
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
        if min(entropic) < -TAU_SLACK:
            raise OutOfRangeError("negative entropic field in report")
        if not -TAU_SLACK <= self.delta <= 1.0 + TAU_SLACK:
            raise OutOfRangeError(f"delta {self.delta} outside [0, 1]")


def audit_attack(ch: AttackChannel, samples: int, seed: int) -> BoundsReport:
    """Run the full bound chain on one attack.

    Certifies, each to TAU_SLACK, ``i_lower <= chi_orig <= chi_sym <= h_xor``,
    ``i_lower <= h_xor`` and the Gram-spectrum identity.  Raises
    TheoremViolation (carrying the report) if one fails, which can only
    mean an implementation bug.  ``chi_orig`` comes from Kraus Gram
    spectra (``kraus_holevo_chi``), which also checks the spectra of the
    original states; the measured search runs on their unvalidated stack
    (``eve_states``) and checks its pretty good measurement once.  Neither
    the symmetrized attack nor its purification Gram is built: ``chi_sym``
    (``symmetrized_holevo_chi``) and the Fourier spectrum of the identity
    (``fourier_spectrum``) come from the original table regrouped by error
    pattern (``error_patterns``), while the error distribution they are
    checked against comes independently from the conjugate-basis table
    (``xor_error_distribution``, which also refuses other bases).
    """
    ed = xor_error_distribution(ch)
    delta_raw = ed.delta
    h_xor = xor_entropy_bound(ed)

    chi_orig = kraus_holevo_chi(ch.kraus)
    patterns = error_patterns(ch.kraus)
    chi_sym = symmetrized_holevo_chi(patterns)

    priors = np.full(ch.dim, 1.0 / ch.dim)
    i_lower = _accessible_info(priors, eve_states(ch), samples, seed)

    lambdas = fourier_spectrum(patterns)
    spectrum_deviation = float(np.max(np.abs(lambdas - ed.probs)))

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
        fourier_eigenvalues=lambdas,
    )
    if (
        report.slack_main < -TAU_SLACK
        or report.slack_measured < -TAU_SLACK
        or i_lower - chi_orig > TAU_SLACK
        or chi_orig - chi_sym > TAU_SLACK
        or report.spectrum_deviation > TAU_SLACK
    ):
        raise TheoremViolation("audited bounds violated beyond tolerance", report)
    return report
