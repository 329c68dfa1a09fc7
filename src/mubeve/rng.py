"""Deterministic random streams.

Every random object in this package (attack unitaries, measurement bases,
campaign sub-seeds) is derived from SplitMix64, so identical seeds give
bit-identical integer streams on any platform and in any language that
implements the same algorithm.

SplitMix64 keeps a 64-bit state ``x`` and produces one output per step::

    x = (x + 0x9E3779B97F4A7C15) mod 2**64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) mod 2**64
    output = z ^ (z >> 31)

Derived quantities:

* uniform double in [0, 1): the top 53 bits, ``(output >> 11) * 2**-53``;
* one Gaussian pair per two uniforms via Box-Muller,
  ``r = sqrt(-2 ln(1 - u1))``, ``(r cos(2 pi u2), r sin(2 pi u2))``;
* complex Gaussian matrices filled row-major, one Box-Muller pair per
  entry, entry ``(z0 + i z1) / sqrt(2)``;
* sub-seeds via :func:`mix`, which folds integers into a seed with the
  same finalizer.

Step k of a stream seeded with ``s`` has state ``s + k * GOLDEN mod 2**64``,
so :meth:`SplitMix64.gaussian_matrix` computes a whole draw in numpy
``uint64`` arithmetic, 8,192 pairs per pass.  Each pass works in place in
two ``uint64`` buffers allocated once per draw: the states of pair p are
``(s + GOLDEN) + p * 2 GOLDEN`` and that plus ``GOLDEN``; the finalizer
shifts into the second buffer and updates the first, whose products wrap
without a mask; and the Box-Muller chain writes through ``out=`` into the
buffers and the result, with the operations of the scalar pair in their
order.  ``ln``, ``cos`` and ``sin`` are the numpy ufuncs ``np.log``,
``np.cos`` and ``np.sin``, in the block draw and in
:meth:`SplitMix64.next_gaussian_pair` alike, and ``sqrt``, products and
sums are correctly rounded.  A ufunc gives the same bits for one value as
for any position of a vector, so a draw equals, bit for bit, the same
count of :meth:`SplitMix64.next_gaussian_pair` calls on one machine.
Across machines the last bit can move: numpy picks its ``log`` kernel by
CPU features, and on AVX-512 hardware it differs from the platform
``math.log`` in the last bit for a fraction of a percent of inputs.

Unitaries orthonormalize such a matrix by Householder QR (LAPACK) with
the phases fixed so that ``R`` has a positive real diagonal: column k is
the normalized part of input column k orthogonal to the columns before
it, as with Gram-Schmidt.  So the first k columns of a random unitary
depend only on the first k columns of its Gaussian matrix, and
:func:`random_isometry` draws just those entries.  Where only the moduli of
some vectors' amplitudes in such a basis matter, :func:`basis_amplitudes`
appends the vectors to the matrix and reads them off ``R`` instead.

Test vectors (first outputs for a given seed) are frozen in
``tests/test_rng.py`` and listed in the README.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DependentColumnsError,
    DimensionMismatchError,
    DimensionTooLargeError,
    OutOfRangeError,
)
from .linalg import MAX_TOTAL_DIM, TAU_RANK, _as_integer, _shown

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
# Gaussian pairs per pass of a block draw.  A 65,536-pair draw in one pass
# took 3.3 ms and in passes of 8,192 pairs 2.5 ms (2-core x86 VM): the
# temporaries of a pass stay in cache and are not page-faulted in afresh.
_DRAW_CHUNK = 8192


# The output finalizer, one round per row: z ^= z >> shift, then z *=
# multiplier mod 2**64 where the round has one.
_FINALIZER = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB), (31, None))


def _finalize(z, shifted=None):
    """The SplitMix64 output finalizer of ``_FINALIZER``.  On an int in
    [0, 2**64) it returns the new int; on a ``uint64`` array, whose products
    wrap, it works in place, with ``shifted`` (of ``z``'s shape) as scratch."""
    for shift, multiplier in _FINALIZER:
        if shifted is None:
            z ^= z >> shift
            if multiplier:
                z = z * multiplier & MASK64
        else:
            np.right_shift(z, shift, out=shifted)
            z ^= shifted
            if multiplier:
                z *= multiplier
    return z


def mix64(z):
    """Apply the SplitMix64 output finalizer to an integer (Python or numpy,
    not a bool) in [0, 2**64 - 1], or elementwise to a numpy ``uint64``
    array, returning a new array; anything else raises OutOfRangeError.
    An integer is finalized as a Python int, so numpy never sees a scalar
    overflow; an array is copied once and finalized in place."""
    if isinstance(z, np.ndarray):
        if z.dtype != np.uint64:
            raise OutOfRangeError(f"mix64 input array has dtype {z.dtype}, not uint64")
        return _finalize(z.copy(), np.empty_like(z))
    return _finalize(_as_integer(z, "mix64 input", 0, MASK64))


def _checked_seed(seed) -> int:
    """``seed`` as a Python int, or OutOfRangeError unless it is an integer
    in [0, MASK64]: the stream keeps 64 bits, so any other value would
    alias a seed in that range."""
    return _as_integer(seed, "seed", 0, MASK64)


def mix(seed: int, *parts: int) -> int:
    """Fold integers into a 64-bit sub-seed.

    ``mix(s, p1, p2, ...)`` starts from the seed ``s``, checked like a
    stream's, and absorbs each part, an integer in [0, 2**64 - 1], with
    ``h = mix64(((h ^ p) + GOLDEN) mod 2**64)``.  Used to derive one
    independent stream per campaign cell and per audited attack.
    """
    h = _checked_seed(seed)
    for p in parts:
        h = mix64(((h ^ _as_integer(p, "mix part", 0, MASK64)) + GOLDEN) & MASK64)
    return h


class SplitMix64:
    """Sequential SplitMix64 stream from a seed in [0, 2**64 - 1]; any
    other seed raises OutOfRangeError."""

    def __init__(self, seed: int):
        self._state = _checked_seed(seed)

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        return _finalize(self._state)

    def next_double(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def next_gaussian_pair(self) -> tuple[float, float]:
        """One Box-Muller pair of independent standard normals."""
        u1 = self.next_double()
        u2 = self.next_double()
        r = math.sqrt(-2.0 * float(np.log(1.0 - u1)))
        t = 2.0 * math.pi * u2
        return r * float(np.cos(t)), r * float(np.sin(t))

    def gaussian_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Matrix of standard complex Gaussians, filled row-major.

        Each entry is ``(z0 + i z1) / sqrt(2)`` for one Box-Muller pair,
        so real and imaginary parts have variance 1/2.  The draw advances
        the stream by ``2 * rows * cols`` steps, so a ``(m * rows) x cols``
        draw equals ``m`` consecutive ``rows x cols`` draws stacked.
        """
        pairs = rows * cols
        out = _gaussians_at(self._state, np.arange(pairs, dtype=np.uint64))
        self._state = (self._state + 2 * pairs * GOLDEN) & MASK64
        return out.reshape(rows, cols)


def _gaussians_at(state: int, pairs: np.ndarray) -> np.ndarray:
    """Complex Gaussian entries number ``pairs`` (a ``uint64`` array) of a
    stream at ``state``: entry p is the Box-Muller pair of steps 2p + 1 and
    2p + 2, the value ``gaussian_matrix`` puts at flat position p.  Each
    pass works in place in two ``uint64`` buffers with a row per step of the
    pair: the first holds the states, then the bits, then ``cos`` and
    ``sin``; the second the shifts, then the uniforms read as doubles."""
    out = np.empty(pairs.size, dtype=complex)
    steps = np.empty((2, min(pairs.size, _DRAW_CHUNK)), dtype=np.uint64)
    scratch = np.empty_like(steps)
    first, stride, golden = (np.uint64(x & MASK64) for x in (state + GOLDEN, 2 * GOLDEN, GOLDEN))
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for lo in range(0, pairs.size, _DRAW_CHUNK):
        chunk = out[lo:lo + _DRAW_CHUNK]
        bits, shifted = steps[:, :chunk.size], scratch[:, :chunk.size]
        np.multiply(pairs[lo:lo + _DRAW_CHUNK], stride, out=bits[0])
        bits[0] += first
        np.add(bits[0], golden, out=bits[1])
        _finalize(bits, shifted)
        bits >>= np.uint64(11)
        u1, u2 = np.multiply(bits, 2.0**-53, out=shifted.view(np.float64))
        trig = bits[0].view(np.float64)
        # the same operations, in the same order, as next_gaussian_pair:
        # r = sqrt(-2 ln(1 - u1)) lands in u1, t = 2 pi u2 in u2
        np.subtract(1.0, u1, out=u1)
        np.log(u1, out=u1)
        np.multiply(-2.0, u1, out=u1)
        np.sqrt(u1, out=u1)
        np.multiply(2.0 * math.pi, u2, out=u2)
        # each part is (r * cos(t)) * inv_sqrt2, (r * sin(t)) * inv_sqrt2
        np.cos(u2, out=trig)
        trig *= u1
        np.multiply(trig, inv_sqrt2, out=chunk.real)
        np.sin(u2, out=trig)
        trig *= u1
        np.multiply(trig, inv_sqrt2, out=chunk.imag)
    return out


def _checked_diagonal(diag: np.ndarray) -> np.ndarray:
    """``|diag|`` for the diagonal of a QR factor ``R``, or
    DependentColumnsError when some entry is below TAU_RANK (or not finite)."""
    size = np.abs(diag)
    if size.size and not size.min() >= TAU_RANK:
        raise DependentColumnsError("columns are numerically dependent")
    return size


def gram_schmidt_unitary(a: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of a matrix with at least as many rows
    as columns (a unitary when square, an isometry when tall), or of each
    matrix in a stack of shape ``(m, rows, cols)``.

    Householder QR with the phases of ``Q`` fixed so that ``R`` has a
    positive real diagonal: the Gram-Schmidt basis of the columns, in
    their order.  Raises DependentColumnsError when some ``|R_kk|`` is
    below TAU_RANK (or not finite).
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] > a.shape[-2]:
        raise DimensionMismatchError(
            "expected a square or tall matrix or a stack of them"
        )
    q, r = np.linalg.qr(a)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / _checked_diagonal(diag))[..., None, :]


def basis_amplitudes(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Amplitudes of the vectors ``rows[r]`` in the Gram-Schmidt basis of
    each matrix of a stack ``a`` of shape ``(m, d, d)``, each basis vector
    up to a phase: ``amp[s, r, k]`` has the modulus of
    ``(rows @ gram_schmidt_unitary(a).conj())[s, r, k]``, without forming
    the basis.

    The rows go after the columns of each matrix, and one Householder QR
    (``mode="raw"``) applies its reflectors to them as well: beside the
    ``d x d`` factor, ``R`` holds ``D Q^H rows^T``, where ``D`` holds the
    column phases that ``gram_schmidt_unitary`` removes.  The factor of the
    first ``d`` columns does not depend on the appended ones, so
    DependentColumnsError is raised as by ``gram_schmidt_unitary``.
    """
    m, d, _ = a.shape
    joined = np.empty((m, d, d + rows.shape[0]), dtype=complex)
    joined[..., :d] = a
    joined[..., d:] = rows.T
    h = np.linalg.qr(joined, mode="raw")[0]   # h[s] holds R[s]^T on and below its diagonal
    _checked_diagonal(np.diagonal(h, axis1=-2, axis2=-1))
    return h[:, d:, :]


def random_isometry(rows: int, cols: int, seed: int) -> np.ndarray:
    """The first ``cols`` columns of ``random_unitary(rows, seed)``.

    Only the Gaussian entries of those columns are drawn (entry (r, c) of
    the ``rows x rows`` draw is pair ``r * rows + c`` of the stream), and
    QR keeps column k a function of input columns 0..k.  Both sizes are
    checked before anything is allocated: ``rows`` above MAX_TOTAL_DIM is a
    DimensionTooLargeError, and ``cols`` outside [1, rows] an OutOfRangeError.
    """
    rows = _as_integer(rows, "row count", 1)
    if rows > MAX_TOTAL_DIM:
        raise DimensionTooLargeError(f"row count {_shown(rows)} exceeds {MAX_TOTAL_DIM}")
    cols = _as_integer(cols, "column count", 1, rows)
    flat = np.arange(rows, dtype=np.uint64)[:, None] * np.uint64(rows)
    pairs = (flat + np.arange(cols, dtype=np.uint64)).reshape(-1)
    g = _gaussians_at(_checked_seed(seed), pairs).reshape(rows, cols)
    return gram_schmidt_unitary(g)


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Seeded random unitary: complex Gaussian matrix, columns orthonormalized."""
    return random_isometry(dim, dim, seed)
