"""Dense checks that the reference checker lacks, on numpy alone.

The benchmark's checker, ``perfbench/reference.py`` (loaded by
``conftest.py`` as ``reference``), is the tests' reference for every
audited quantity.  This module keeps what it does not compute: the
purification Gram state of a symmetrized table with its
translation-invariance and eigensolver cross-checks, and the receiver's
conjugate-basis state.  It builds its own sign table and checks its own
states; of the package it imports only the error classes it raises.
"""

import numpy as np

from mubeve.errors import (
    DimensionMismatchError,
    InvalidStateError,
    NotHermitianError,
    TranslationInvarianceError,
)

TAU_STATE = 1e-9      # Hermitian residual and |trace - 1| of a checked state
TAU_NEGATIVE = 1e-10  # its lowest admitted eigenvalue is -TAU_NEGATIVE
# Checks of the dense Gram route only: on the audit's Walsh route the
# profile is translation-invariant and its spectrum real by construction.
TAU_SPREAD = 1e-10   # spread of a purification overlap over pairs with one i XOR j
TAU_FOURIER = 1e-9   # Fourier eigenvalues: imaginary part, and gap to the eigensolver


def bit_dot(a, b):
    """Bit-wise product of two indices, summed mod 2."""
    return (a & b).bit_count() & 1


def _signs(d):
    """The d x d table of (-1)**(i.j)."""
    return np.array([[(-1.0) ** bit_dot(i, j) for j in range(d)] for i in range(d)])


def _checked_state(m):
    """``m`` if it is a density matrix, else InvalidStateError (a non-finite
    entry, a trace off 1 or an eigenvalue below -TAU_NEGATIVE) or, for a
    Hermitian residual beyond TAU_STATE, NotHermitianError."""
    if not np.isfinite(m).all():
        raise InvalidStateError("state has non-finite entries")
    if np.abs(m - m.conj().T).max() > TAU_STATE:
        raise NotHermitianError("state is not Hermitian")
    if abs(np.trace(m) - 1.0) > TAU_STATE:
        raise InvalidStateError(f"trace {np.trace(m)} deviates from 1")
    if np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min() < -TAU_NEGATIVE:
        raise InvalidStateError(f"smallest eigenvalue below -{TAU_NEGATIVE}")
    return m


def purification_vectors(kraus):
    """Row i is ``sum_j kraus[i, j] (x) |i^j>`` in (apparatus) x (reference),
    the reference owning the low index bits: one purification of each
    apparatus state of a symmetrized Kraus table."""
    d, _, eve_dim = kraus.shape
    out = np.zeros((d, eve_dim, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            out[i, :, i ^ j] = kraus[i, j]
    return out.reshape(d, -1)


def sigma_matrix(vectors):
    """Gram state ``sigma[i, j] = 2**-n <phi_j|phi_i>`` of one purification
    per row (2**n rows, n >= 1), checked as a density matrix, and its
    Fourier spectrum ``lambdas``.  The overlap profile must depend on i XOR
    j alone (spread within TAU_SPREAD) and its Fourier transform must be
    real (within TAU_FOURIER), else TranslationInvarianceError."""
    vecs = np.asarray(vectors, dtype=complex)
    d = vecs.shape[0] if vecs.ndim == 2 else 0
    if d < 2 or d & (d - 1):
        raise DimensionMismatchError(f"purifications are {vecs.shape}, expected 2**n rows")
    gram = vecs @ vecs.conj().T
    idx = np.arange(d)
    reps = gram[idx[None, :], idx[:, None] ^ idx[None, :]]   # reps[t, i] = gram[i, i ^ t]
    spread = float(np.abs(reps - reps[:, :1]).max())
    if spread > TAU_SPREAD:
        raise TranslationInvarianceError(f"overlap profile varies by {spread:.3e}")
    lambdas = _signs(d) @ gram[0] / float(d)
    if float(np.abs(lambdas.imag).max()) > TAU_FOURIER:
        raise TranslationInvarianceError("Fourier eigenvalues are not real")
    return _checked_state(gram / float(d)), lambdas.real


def sigma_spectrum_check(sigma, lambdas, probs):
    """Largest deviation between the Fourier eigenvalues and the error
    probabilities, index by index.  The Fourier eigenvalues must equal the
    eigensolver's spectrum of ``sigma`` as multisets, within TAU_FOURIER,
    else TranslationInvarianceError."""
    solver = np.linalg.eigvalsh(0.5 * (sigma + sigma.conj().T))[::-1]
    xcheck = float(np.abs(solver - np.sort(lambdas)[::-1]).max())
    if xcheck > TAU_FOURIER:
        raise TranslationInvarianceError(f"Fourier and eigensolver disagree by {xcheck:.3e}")
    return float(np.abs(lambdas - probs).max())


def bob_conjugate_state(kraus, i):
    """Checked state reaching the receiver when string i is sent in the
    conjugate basis, in the computational representation: its
    conjugate-basis diagonal holds the receiver's outcome probabilities."""
    d = kraus.shape[0]
    h = _signs(d) / np.sqrt(d)
    kbar = np.einsum("a,sj,ajx->sx", h[i], h, kraus)   # conjugate-basis rows of input i
    return _checked_state(h @ (kbar @ kbar.conj().T) @ h)
