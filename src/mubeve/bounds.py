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
    InvalidPovmError,
    NotADistributionError,
    OutOfRangeError,
    TheoremViolation,
)
from .channel import AttackChannel, ErrorDistribution, xor_error_distribution
from .linalg import (
    TAU_HERM,
    TAU_POVM,
    TAU_PSD,
    TAU_SLACK,
    TAU_SUPPORT,
    _REAL_TYPES,
    _as_integer,
    _as_table,
    _entropy_bits,
    _min_eigenvalue_at_least,
    _shown,
    _svd,
    density_spectra,
    hermitian_residual,
    mixture_spectra,
    spectral_entropies,
    xor_regroup,
)
from .rng import SplitMix64, gram_schmidt_unitary
from .symmetrize import fourier_spectrum, walsh_table

_BLOCK_ENTRIES = 2**16  # basis-matrix entries per block of the random search


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
    res = float(abs(elements.sum(axis=0) - np.eye(d)).max())
    if not res <= TAU_POVM:
        raise InvalidPovmError(f"completeness residual {res:.3e} exceeds {TAU_POVM}")


def kraus_holevo_chi(kraus) -> float:
    """Holevo quantity of the uniform ensemble of apparatus states
    ``rho_i = sum_j |K_ij><K_ij|`` of a Kraus table ``kraus[i, j]``.

    Equals the Holevo quantity of the dense states ``eve_state(ch, i)``
    for ``kraus = ch.kraus``, but no dense state is built: the state spectra
    and the spectrum of the average (all ``d**2`` vectors at weight
    ``1/d``) come from ``mixture_spectra``, which eigensolves the smaller
    side of each Gram/ensemble pair and checks every spectrum.  The value
    is the mean of ``S(avg) - S(rho_i)``, so an ensemble of identical
    states, such as the symmetrized identity attack, reads exactly 0.
    A table not of numbers, or of another shape, is refused by ``_as_table``.
    """
    k, d = _as_table(kraus, "kraus table")
    individual = spectral_entropies(mixture_spectra(k))
    mixed = spectral_entropies(mixture_spectra(k.reshape(1, d * d, -1), 1.0 / d))
    return float((mixed - individual).mean()) + 0.0  # normalize -0.0


def symmetrized_holevo_chi(walsh) -> float:
    """Holevo quantity of the shift-symmetrized attack, computed from the
    Walsh table ``walsh = walsh_table(ch.kraus)`` of the original table
    regrouped by error pattern, ``W[c, x] = sum_a (-1)**(x.a) P[c, a]``.

    Equals ``kraus_holevo_chi(symmetrize(ch).kraus)``, but the enlarged
    table is never built.  The symmetrized states are XOR-covariant, so
    all share the nonzero spectrum of one ``2**n x 2**n`` Gram matrix
    ``G0[j, k] = 2**-n sum_m (-1)**(m.(j^k)) <P[k, m]|P[j, m]>``, which
    equals ``4**-n Y Y^H`` with ``Y[j, l] = W[j, l^j]``; it is taken on
    this side even when ``eve_dim = 1`` ties it.  Their average is
    block-circulant over the shift register, so its spectrum is the union
    over l of the spectra of ``B_l = 4**-n sum_c |W[c, l^c]><W[c, l^c]|``:
    2**n eigenproblems of size ``min(2**n, eve_dim)``.  ``Y`` and the
    ``B_l`` are two readings of one regroup of ``W``.  Both spectra get the
    checks of ``density_spectra``, the average's as one union.  A table not
    of numbers, or of another shape, is refused by ``_as_table``.
    """
    w, d = _as_table(walsh, "Walsh table")
    blocks = xor_regroup(w)                       # blocks[l, c] = W[c, l ^ c]
    # row j: Y[j, l] = W[j, l ^ j], apparatus-major like the purification rows
    rows = blocks.transpose(1, 2, 0).reshape(d, -1)
    state = density_spectra((1.0 / d**2) * (rows @ rows.conj().T))
    average = mixture_spectra(blocks, 1.0 / d**2, union=True)
    chi = spectral_entropies(average.reshape(-1)) - spectral_entropies(state)
    return float(chi) + 0.0  # normalize -0.0


def _label_information(cond) -> np.ndarray:
    """``H(A) + H(E) - H(A, E)`` in bits for uniform labels and outcome
    probabilities ``cond[..., i, a] = p(a|i)``, one value per leading index.

    The label entropy is log2 of the label count, exactly ``n`` for
    ``2**n`` labels.  Negative rounding in ``cond`` is clipped to 0, and each
    joint table is renormalized, which absorbs the uniform label weight and
    measurement completeness slack, so only its finiteness needs a check.
    """
    joint = np.maximum(cond, 0.0)  # what np.clip(cond, 0.0, None) calls
    joint /= joint.sum(axis=(-2, -1), keepdims=True)
    if not np.isfinite(joint).all():
        raise NotADistributionError("measured joint table has non-finite entries")
    h_outcome = _entropy_bits(joint.sum(axis=-2))
    h_joint = _entropy_bits(joint.reshape(*cond.shape[:-2], -1))
    return math.log2(cond.shape[-2]) + h_outcome - h_joint


def _accessible_info(kraus: np.ndarray, samples: int, seed: int) -> float:
    """Best measured mutual information over the pretty good measurement
    and ``samples`` seeded random orthonormal-basis measurements, for the
    uniform ensemble of apparatus states ``rho_i = sum_j |K_ij><K_ij|`` of
    a Kraus table ``kraus[i, j] = K_ij``.

    Monotone nondecreasing in ``samples`` for a fixed seed, since the
    bases come from one sequential stream, drawn, orthonormalized and
    scored in blocks that equal the same bases drawn one at a time.
    No state is formed densely: a state with more Kraus vectors than its
    dimension ``d`` (``eve_dim < 2**n``, such as (3, 2)) is first reduced to
    ``d`` rows ``A_i`` by QR.  The pretty good measurement lives on the
    support of the average (Hausladen & Wootters, J. Mod. Opt. 41, 2385
    (1994)).  With the thin SVD ``2**(-n/2) [A_i] = [U_i] S V^H`` of all
    rows (``s**2 > TAU_SUPPORT``), its elements are ``U_i^H U_i`` and the
    states ``C_i^H C_i`` for ``C_i = A_i V``, at most ``min(4**n, eve_dim)``
    wide.  A random basis is formed by QR of a ``d x d`` draw and scored
    through the rows, ``p(a|i) = sum_j |<b_a|K_ij>|**2``: about ``(4/3)
    d**3`` products plus ``d**2`` per row.  ``audit_attack`` passes the
    support table, so where ``eve_dim > 4**n`` these are Haar bases of the
    support, ``4**n`` wide, not of the whole apparatus: 0.4-0.7 ms a basis
    at (3, 64), the widest, and 0.004 ms at (1, 256) (2-core x86 VM, one
    BLAS thread).  A block holds at most ``2**16`` entries of the draw and
    of the amplitudes.
    """
    samples = _as_integer(samples, "samples", 0)
    count, rank, d = kraus.shape
    if rank > d:
        # rho_i = A^T conj(A) for the rows A of state i, and A = QR gives
        # rho_i = R^T conj(R): the d rows of R are factors too
        kraus, rank = np.linalg.qr(kraus, mode="r"), d
    rows = kraus.reshape(count * rank, d)
    u, s, vh = _svd(rows, math.sqrt(1.0 / count))
    keep = s**2 > TAU_SUPPORT
    u = u[:, keep].reshape(count, rank, -1)
    c = kraus @ vh[keep].conj().T
    pgm = u.conj().swapaxes(-1, -2) @ u
    _check_povm_stack(pgm)
    cond = np.einsum("axy,iyx->ia", pgm, c.conj().swapaxes(-1, -2) @ c)
    best = float(_label_information(cond.real))
    block = max(1, _BLOCK_ENTRIES // (d * max(d, count * rank)))
    stream = SplitMix64(seed)
    for start in range(0, samples, block):
        m = min(block, samples - start)
        draw = stream.gaussian_matrix(m * d, d).reshape(m, d, d)
        amp = rows @ gram_schmidt_unitary(draw).conj()
        cond = (amp.real**2 + amp.imag**2).reshape(m, count, rank, d).sum(axis=2)
        best = max(best, float(_label_information(cond).max()))
    return best


def _support_table(kraus: np.ndarray) -> np.ndarray:
    """``kraus`` if at most ``4**n`` wide, else its ``4**n`` vectors in a basis
    of their span (Stinespring): ``rows^T = QR`` gives ``rows = R^T Q^T``,
    the same inner products.  Householder QR leaves ``R`` a real diagonal,
    made nonnegative, so it is the Cholesky factor of independent vectors'
    Gram matrix: where the leading Kraus vectors are independent, the
    table depends on nothing else.  Past a dependent vector the rows of
    ``R`` depend on rounding, and so do the scores of the seeded bases;
    random attacks never meet this, and a canonical table (a projected
    Gram square root or a pivoted factor) would remove it."""
    d, _, width = kraus.shape
    if width <= d * d:
        return kraus
    r = np.linalg.qr(kraus.reshape(d * d, width).T, mode="r")
    r *= np.where(r.diagonal().real < 0.0, -1.0, 1.0)[:, None]
    return r.T.reshape(d, d, d * d)


def xor_entropy_bound(ed: ErrorDistribution) -> float:
    """Entropy in bits of the conjugate-basis error pattern (checked by
    ``ed``), with the positive-part policy of ``spectral_entropies``: the
    positive entries renormalized to unit sum, so the value is never
    negative, also where an accepted channel puts an entry a little above 1."""
    return float(spectral_entropies(ed.probs))


def boykin_bound(ed: ErrorDistribution) -> float:
    """Square-root error bound, ``4 n sqrt(delta)``."""
    delta = min(max(ed.delta, 0.0), 1.0)
    return 4.0 * ed.n * math.sqrt(delta)


def corollary_bound(delta: float, n: int) -> float:
    """Closed-form entropy bound from the total error probability alone,
    ``h2(delta) + n * delta`` with the convention 0 log 0 = 0.  ``delta``
    must be a real number (Python or numpy, not a bool) in [0, 1] and ``n``
    a positive integer, else OutOfRangeError."""
    if isinstance(delta, bool) or not isinstance(delta, _REAL_TYPES):
        raise OutOfRangeError(f"delta {_shown(delta)} is not a real number")
    if not 0.0 <= delta <= 1.0:
        shown = _shown(delta) if isinstance(delta, int) else delta  # an int may not print
        raise OutOfRangeError(f"delta {shown} outside [0, 1]")
    n = _as_integer(n, "qubit count", 1)
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
    TheoremViolation (carrying the report and naming each failed link
    with its two values) if one fails, which can only mean an
    implementation bug.  ``chi_orig`` comes from Kraus Gram
    spectra (``kraus_holevo_chi``), which also checks the spectra of the
    original states; the measured search reads the Kraus vectors
    themselves, for its random bases and for its pretty good measurement,
    built on the support of the average and checked once.  Neither
    the symmetrized attack nor its purification Gram is built: ``chi_sym``
    (``symmetrized_holevo_chi``) and the Fourier spectrum of the identity
    (``fourier_spectrum``) both take one Walsh transform ``W`` of the
    original table regrouped by error pattern (``walsh_table``), while
    the error distribution they are checked against comes independently
    from the conjugate-basis table (``xor_error_distribution``).  Every
    later stage runs on the support table (``_support_table``), at most
    ``4**n`` wide, and the report keeps the channel's ``eve_dim``.
    """
    ed = xor_error_distribution(ch)
    kraus = _support_table(ch.kraus)
    delta_raw = ed.delta
    h_xor = xor_entropy_bound(ed)

    chi_orig = kraus_holevo_chi(kraus)
    walsh = walsh_table(kraus)
    chi_sym = symmetrized_holevo_chi(walsh)

    i_lower = _accessible_info(kraus, samples, seed)

    lambdas = fourier_spectrum(walsh)
    spectrum_deviation = float(abs(lambdas - ed.probs).max())

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
    failed = [
        f"{left} {x:.17g} > {right} {y:.17g}"
        for left, x, right, y in (
            ("i_lower", i_lower, "chi_orig", chi_orig),
            ("chi_orig", chi_orig, "chi_sym", chi_sym),
            ("chi_sym", chi_sym, "h_xor", h_xor),
            ("i_lower", i_lower, "h_xor", h_xor),
            ("spectrum_deviation", spectrum_deviation, "0", 0.0),
        )
        if x - y > TAU_SLACK
    ]
    if failed:
        raise TheoremViolation(
            f"audited bounds violated beyond {TAU_SLACK:g}: " + "; ".join(failed),
            report,
        )
    return report
