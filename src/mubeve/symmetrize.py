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
(``fourier_spectrum`` of ``walsh_table(kraus)``).  ``symmetrize`` builds
the enlarged table itself, and ``project_ancilla`` reads its shift
register.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, TranslationInvarianceError
from .channel import AttackChannel
from .linalg import (
    DensityMatrix,
    _check_probabilities,
    _table_side,
    as_index,
    sign_grid,
    walsh,
    xor_grid,
    xor_regroup,
)


def symmetrize(ch: AttackChannel) -> AttackChannel:
    """Build the shift-averaged attack on the enlarged apparatus.

    ``kraus'[i, j] = 2**(-n/2) * sum_m (-1)**(m.(i^j))
    |m> (x) kraus[i^m, j^m]``, with ``eve_dim' = 2**n * eve_dim``; the
    shift register owns the most significant bits of the apparatus index.
    """
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


def walsh_table(kraus) -> np.ndarray:
    """Walsh table ``W[c, x] = sum_a (-1)**(x.a) P[c, a]`` of a Kraus table
    regrouped by error pattern, ``P[c, a] = kraus[a, a ^ c]``, both of shape
    (2**n, 2**n, eve_dim).

    Row c of ``P`` holds the vectors that turn input a into output a XOR c.
    The symmetrized Kraus vectors are signed stacks of one such row,
    ``symmetrize(ch).kraus[i, i ^ c] = 2**(-n/2) sum_m (-1)**(m.c) |m> (x)
    P[c, i ^ m]``.  Any other shape raises DimensionMismatchError.
    """
    kraus = np.asarray(kraus, dtype=complex)
    _table_side(kraus, "kraus table")
    return walsh(xor_regroup(kraus), 1)


def fourier_spectrum(walsh) -> np.ndarray:
    """Fourier spectrum of the purification Gram profile of
    ``symmetrize(ch)``, computed from the Walsh table ``walsh =
    walsh_table(ch.kraus)``, without the enlarged table or the
    purification Gram.

    By Parseval, ``lambda_l = 4**-n sum_c ||W[c, l]||**2``.  The result must
    pass the probability rule, else TranslationInvarianceError; it is the
    trace and the smallest eigenvalue of the Gram state.  A table not of
    shape (2**n, 2**n, eve_dim) raises DimensionMismatchError.
    """
    w = np.asarray(walsh, dtype=complex)
    d = _table_side(w, "Walsh table")
    lam = (w.real**2 + w.imag**2).sum(axis=(0, 2)) / float(d * d)
    _check_probabilities(lam, TranslationInvarianceError, "Fourier eigenvalues")
    lam.setflags(write=False)
    return lam
