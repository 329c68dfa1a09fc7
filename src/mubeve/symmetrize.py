"""Symmetrized attacks and the Gram-state spectrum identity.

Enlarging the apparatus by an n-qubit shift register and averaging over
all XOR shifts makes the eavesdropper's states covariant: measuring the
register yields a uniformly random shift m and leaves exactly the
original apparatus state for the shifted input.  The result is again a
fixed-basis attack, an ``AttackChannel`` whose apparatus is 2**n times
larger, so every channel-level function and bound applies to it as is.
The purifications of the symmetrized states have a Gram matrix whose
(i, j) entry depends only on i XOR j, and the Fourier spectrum of that
profile reproduces the conjugate-basis error distribution.  That
identity is the numerical engine behind the audit bounds and is
re-verified on every audit.

Audits build neither the enlarged table nor the purification Gram: every
symmetrized Kraus vector is a signed stack of the original vectors with
one error pattern ``c = i ^ j``, so the audit reads the Fourier spectrum
off the Walsh transform of the original table regrouped by error pattern
(``fourier_spectrum`` of ``sign_grid(n) @ error_patterns(kraus)``).
``symmetrize``, ``purification_vectors``, ``sigma_matrix`` and
``sigma_spectrum_check`` build and check the Gram state densely and are
the reference route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, TranslationInvarianceError
from .channel import AttackChannel, ErrorDistribution, require_basis_b
from .linalg import (
    TAU_FOURIER,
    TAU_SPREAD,
    DensityMatrix,
    _check_probabilities,
    _eigh,
    as_index,
    sign_grid,
    xor_grid,
    xor_regroup,
)


@dataclass(frozen=True)
class SigmaAnalysis:
    """Gram state of the purification family and its Fourier spectrum.

    ``f_values[t]`` is the common overlap of purification pairs with
    i XOR j = t; ``lambdas[l]`` is its Fourier transform, the eigenvalue
    attached to the sign vector with character l.
    """

    n: int
    sigma: DensityMatrix
    f_values: np.ndarray
    lambdas: np.ndarray

    def __post_init__(self):
        d = 1 << self.n
        f = np.array(self.f_values, dtype=complex).reshape(-1)
        lam = np.array(self.lambdas, dtype=float).reshape(-1)
        if self.sigma.dim != d or f.size != d or lam.size != d:
            raise DimensionMismatchError("component sizes disagree")
        _check_probabilities(lam, TranslationInvarianceError, "Fourier eigenvalues")
        f.setflags(write=False)
        lam.setflags(write=False)
        object.__setattr__(self, "f_values", f)
        object.__setattr__(self, "lambdas", lam)


def symmetrize(ch: AttackChannel) -> AttackChannel:
    """Build the shift-averaged attack on the enlarged apparatus.

    ``kraus'[i, j] = 2**(-n/2) * sum_m (-1)**(m.(i^j))
    |m> (x) kraus[i^m, j^m]``, with ``eve_dim' = 2**n * eve_dim``; the
    shift register owns the most significant bits of the apparatus index.
    """
    require_basis_b(ch)
    d = ch.dim
    x = xor_grid(ch.n)                       # x[i, m] = i ^ m, symmetric
    # (i, j, m): 2**(-n/2) * (-1)**(m.(i^j))
    weight = (2.0 ** (-ch.n / 2.0) * sign_grid(ch.n)[:, x]).transpose(1, 2, 0)
    out = ch.kraus[x[:, None, :], x[None, :, :]]  # (i, j, m, apparatus)
    out *= weight[..., None]
    kraus = out.reshape(d, d, d * ch.eve_dim)
    return AttackChannel(n=ch.n, eve_dim=d * ch.eve_dim, kraus=kraus)


def project_ancilla(sym: AttackChannel, i, m) -> tuple[float, DensityMatrix]:
    """Outcome probability and post-measurement apparatus state when the
    shift register of a symmetrized attack is read out with result m.

    The probability is 2**-n for every (i, m), and the remaining state
    equals the original attack's apparatus state for input i XOR m.
    """
    if sym.eve_dim % sym.dim:
        raise DimensionMismatchError(
            f"eve_dim {sym.eve_dim} is not a multiple of the {sym.dim}-value "
            "shift register"
        )
    i = as_index(i, sym.n)
    m = as_index(m, sym.n)
    de = sym.eve_dim // sym.dim
    block = sym.kraus[i, :, m * de:(m + 1) * de]
    raw = np.einsum("jd,je->de", block, block.conj())
    prob = float(np.trace(raw).real)
    return prob, DensityMatrix(raw / prob)


def purification_vectors(sym: AttackChannel) -> np.ndarray:
    """Attach an n-qubit reference recording i XOR j to each Kraus vector.

    Row i is ``sum_j kraus[i, j] (x) |i^j>`` in (apparatus) x (reference),
    with the reference owning the least significant index bits.  Each row
    is normalized by row orthonormality of the table, and tracing out the
    reference recovers the apparatus state for input i.
    """
    # Reference slot p holds the Kraus vector with j = i ^ p.
    by_slot = xor_regroup(sym.kraus)                   # (p, i, app)
    return by_slot.transpose(1, 2, 0).reshape(sym.dim, -1)   # apparatus-major


def sigma_matrix(vectors) -> SigmaAnalysis:
    """Gram state of a purification family and its Fourier spectrum.

    ``vectors`` holds one purification per row, 2**n rows for n qubits.
    The Gram matrix is authoritative: ``sigma[i, j] = 2**-n <phi_j|phi_i>``,
    so unnormalized rows fail its unit-trace check.  The overlap profile
    must depend on i XOR j only; the representative spread is checked to
    TAU_SPREAD and a violation raises TranslationInvarianceError (an
    implementation bug, not a bad input).
    """
    vecs = np.asarray(vectors, dtype=complex)
    d = vecs.shape[0] if vecs.ndim == 2 else 0
    n = d.bit_length() - 1
    if n < 1 or d != 1 << n:
        raise DimensionMismatchError(
            f"purifications are {vecs.shape}, expected 2**n rows with n >= 1"
        )
    gram = vecs @ vecs.conj().T
    reps = xor_regroup(gram)             # reps[t, i] = gram[i, i ^ t]
    spread = float(np.max(np.abs(reps - reps[:, :1])))
    if spread > TAU_SPREAD:
        raise TranslationInvarianceError(
            f"overlap profile varies by {spread:.3e} across representatives"
        )
    f_values = gram[0, :].copy()         # representative i = 0
    lambdas_c = sign_grid(n) @ f_values / float(d)
    if float(np.max(np.abs(lambdas_c.imag))) > TAU_FOURIER:
        raise TranslationInvarianceError("Fourier eigenvalues are not real")
    return SigmaAnalysis(
        n=n,
        sigma=DensityMatrix(gram / float(d)),
        f_values=f_values,
        lambdas=lambdas_c.real.copy(),
    )


def error_patterns(kraus) -> np.ndarray:
    """A Kraus table regrouped by error pattern, ``P[c, a] = kraus[a, a ^ c]``,
    of shape (2**n, 2**n, eve_dim).

    Row c holds the vectors that turn input a into output a XOR c.  The
    symmetrized Kraus vectors are signed stacks of one such row,
    ``symmetrize(ch).kraus[i, i ^ c] = 2**(-n/2) sum_m (-1)**(m.c) |m> (x)
    P[c, i ^ m]``.
    """
    return xor_regroup(np.asarray(kraus, dtype=complex))


def fourier_spectrum(walsh) -> np.ndarray:
    """``sigma_matrix(purification_vectors(symmetrize(ch))).lambdas``
    computed from the Walsh table ``walsh = sign_grid(n) @
    error_patterns(ch.kraus)``, without the enlarged table or the
    purification Gram.

    By Parseval, ``lambda_l = 4**-n sum_c ||W[c, l]||**2`` with the Walsh
    transform ``W[c, x] = sum_a (-1)**(x.a) P[c, a]``.  The result must
    pass the probability rule, else TranslationInvarianceError; it is the
    trace and the smallest eigenvalue of the Gram state.
    """
    w = np.asarray(walsh, dtype=complex)
    d = w.shape[0]
    lam = np.sum(w.real**2 + w.imag**2, axis=(0, 2)) / float(d * d)
    _check_probabilities(lam, TranslationInvarianceError, "Fourier eigenvalues")
    lam.setflags(write=False)
    return lam


def sigma_spectrum_check(sa: SigmaAnalysis, ed: ErrorDistribution) -> float:
    """Largest deviation between the Fourier eigenvalues and the
    conjugate-basis error distribution, index by index.

    Also cross-checks the Fourier eigenvalues against the Hermitian
    eigensolver as multisets; disagreement beyond TAU_FOURIER means the
    two routes diverged and is raised as an internal error.  ``sa.sigma``
    was checked when built, so the eigensolve skips the Hermitian check.
    """
    if sa.n != ed.n:
        raise DimensionMismatchError("qubit counts disagree")
    deviation = float(np.max(np.abs(sa.lambdas - ed.probs)))
    solver = _eigh(sa.sigma.matrix, want_vectors=False)[0][::-1]
    fourier = np.sort(sa.lambdas)[::-1]
    xcheck = float(np.max(np.abs(solver - fourier)))
    if xcheck > TAU_FOURIER:
        raise TranslationInvarianceError(
            f"Fourier and eigensolver spectra disagree by {xcheck:.3e}"
        )
    return deviation
