"""The shift-symmetrized attack and the Gram-state spectrum identity,
read off the original Kraus table.

Enlarging the apparatus by an n-qubit shift register and averaging over
all XOR shifts makes the eavesdropper's states covariant.  The
symmetrized table is ``K'[i, j] = 2**(-n/2) sum_m (-1)**(m.(i^j)) |m> (x)
K[i^m, j^m]``, with the register owning the most significant bits of an
apparatus 2**n times larger.  It is again a fixed-basis attack, and
measuring its register yields a uniformly random shift m and leaves
exactly the original apparatus state for input i XOR m.  The
purifications of the symmetrized states have a Gram matrix whose (i, j)
entry depends only on i XOR j, and the Fourier spectrum of that profile
reproduces the conjugate-basis error distribution.  That identity is the
numerical engine behind the audit bounds and is re-verified on every
audit.

The package builds neither the enlarged table nor the purification Gram:
every symmetrized Kraus vector is a signed stack of the original vectors
with one error pattern ``c = i ^ j``, so the audit reads the Fourier
spectrum off the Walsh transform of the original table regrouped by
error pattern (``fourier_spectrum`` of ``walsh_table(kraus)``).  The
reference checker's ``symmetrized`` (``perfbench/reference.py``) builds
the enlarged table, and the tests check these readings against it.
"""

from __future__ import annotations

import numpy as np

from .errors import TranslationInvarianceError
from .linalg import _as_table, _check_probabilities, walsh, xor_regroup


def walsh_table(kraus) -> np.ndarray:
    """Walsh table ``W[c, x] = sum_a (-1)**(x.a) P[c, a]`` of a Kraus table
    regrouped by error pattern, ``P[c, a] = kraus[a, a ^ c]``, both of shape
    (2**n, 2**n, eve_dim).

    Row c of ``P`` holds the vectors that turn input a into output a XOR c.
    The symmetrized Kraus vectors are signed stacks of one such row,
    ``K'[i, i ^ c] = 2**(-n/2) sum_m (-1)**(m.c) |m> (x) P[c, i ^ m]``.
    Any other table is refused by ``_as_table``.
    """
    return walsh(xor_regroup(_as_table(kraus, "kraus table")[0]), 1)


def fourier_spectrum(walsh) -> np.ndarray:
    """Fourier spectrum of the purification Gram profile of the symmetrized
    attack, computed from the Walsh table ``walsh = walsh_table(ch.kraus)``,
    without the enlarged table or the purification Gram.

    By Parseval, ``lambda_l = 4**-n sum_c ||W[c, l]||**2``.  The result must
    pass the probability rule, else TranslationInvarianceError; it is the
    trace and the smallest eigenvalue of the Gram state.  A table not of
    numbers, or of another shape, is refused by ``_as_table``.
    """
    w, d = _as_table(walsh, "Walsh table")
    lam = (w.real**2 + w.imag**2).sum(axis=(0, 2)) / float(d * d)
    _check_probabilities(lam, TranslationInvarianceError, "Fourier eigenvalues")
    lam.setflags(write=False)
    return lam
