"""Dense complex linear algebra for small multi-qubit systems.

Everything here works on plain ``numpy`` arrays of ``complex128``.  Bit
ordering is fixed package-wide: qubit 1 is the most significant bit of an
index, and tensor factors compose with the left factor owning the most
significant bits (the ``numpy.kron`` convention).

Every Hermitian eigensolve goes through ``_eigh``, which calls LAPACK
through ``numpy.linalg.eigh``/``eigvalsh``.  Reruns are byte-identical on
a given machine and numpy/BLAS build, which the audit pipeline relies on;
other builds may differ in the last digits.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    EigensolverError,
    InvalidArrayError,
    InvalidStateError,
    MubeveError,
    NotHermitianError,
    OutOfRangeError,
)

# Tolerances, one table for the whole package.  Double precision with
# dimensions up to 512; every residual is a max-norm.
TAU_HERM = 1e-9      # Hermitian residual |a - a^H| of a matrix
TAU_TR = 1e-9        # |trace - 1| of a state, |sum - 1| of a probability row
TAU_PSD = 1e-10      # lowest admitted eigenvalue or probability is -TAU_PSD
TAU_UNIT = 1e-9      # unitarity residual of a unitary or a Kraus table
TAU_POVM = 1e-8      # completeness residual |sum_a X_a - I| of a POVM
TAU_SUPPORT = 1e-12  # a PGM average's eigenvalues (factor s**2) above this span its support
TAU_RANK = 1e-12     # |R_kk| below this makes QR columns numerically dependent
TAU_SLACK = 1e-9     # audit theorem checks, and the range of report fields

# Largest supported total dimension, eve_dim * 2**n of a cell and the rows
# of a random isometry.
MAX_TOTAL_DIM = 512
N_MAX = MAX_TOTAL_DIM.bit_length() - 1  # largest n whose 2**n strings fit it


def check_cell(n: int, eve_dim: int) -> None:
    """Reject a (qubit count, apparatus dimension) cell outside the
    supported limits: ``1 <= n <= N_MAX`` (OutOfRangeError), ``eve_dim >= 1``
    (OutOfRangeError) and ``eve_dim * 2**n <= MAX_TOTAL_DIM``
    (DimensionTooLargeError).  A non-integer is an OutOfRangeError.  The
    cell rule of every attack builder and campaign grid."""
    _as_integer(n, "qubit count", 1, N_MAX)
    _as_integer(eve_dim, "eve_dim", 1)
    total = eve_dim * (1 << n)
    if total > MAX_TOTAL_DIM:
        raise DimensionTooLargeError(
            f"total dimension {_shown(total)} exceeds {MAX_TOTAL_DIM}"
        )


def _shown(value) -> str:
    """``repr(value)`` for an error message, or its digit limit where Python
    refuses to print an integer that long (``sys.get_int_max_str_digits``)."""
    try:
        return repr(value)
    except ValueError:
        return f"of over {sys.get_int_max_str_digits()} digits"


def _as_integer(value, what: str, minimum=None, maximum=None) -> int:
    """``value`` as a Python int, or OutOfRangeError naming ``what`` unless it
    is an integer (Python or numpy, not a bool) in [minimum, maximum], None
    being open: a float would fail later as a TypeError, and True read as 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise OutOfRangeError(f"{what} {_shown(value)} is not an integer")
    value = int(value)
    if maximum is not None and not minimum <= value <= maximum:
        raise OutOfRangeError(f"{what} {_shown(value)} outside [{minimum}, {maximum}]")
    if minimum is not None and value < minimum:
        raise OutOfRangeError(f"{what} {_shown(value)} must be at least {minimum}")
    return value


_REAL_TYPES = (int, float, np.integer, np.floating)
_NUMBER_TYPES = _REAL_TYPES + (complex, np.complexfloating)  # bool, an int, is not one


def _as_reals(values, what: str) -> tuple[float, ...]:
    """``values`` as a tuple of floats, or OutOfRangeError naming ``what``
    unless it is a list, tuple or array of finite real numbers (Python or
    numpy, not bools); a bad entry is named by its position."""
    if not isinstance(values, (list, tuple, np.ndarray)):
        raise OutOfRangeError(f"{what} must be a list of numbers, not {type(values).__name__}")
    reals = []
    for pos, value in enumerate(values):
        try:
            real = float(value) if isinstance(value, _REAL_TYPES) else math.nan
        except OverflowError:  # an int beyond the double range
            real = math.inf
        if isinstance(value, bool) or not math.isfinite(real):
            raise OutOfRangeError(f"{what}[{pos}] {_shown(value)} is not a finite real number")
        reals.append(real)
    return tuple(reals)


def _as_array(values, dtype, what: str) -> np.ndarray:
    """``values`` as a new numpy array of ``dtype``, or InvalidArrayError
    naming ``what`` unless every entry is an int, float or complex, Python
    or numpy: never a bool or text, which numpy reads as 1 or parses ("1"
    as 1), nor an integer beyond a double.  A numpy array is judged by its
    dtype (kind i, u, f or c), anything else by one pass over its entry
    types, where a ragged nesting shows up as a list."""
    try:
        a = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
        if a.dtype.kind == "O":
            if not all(issubclass(t, _NUMBER_TYPES) and t is not bool
                       for t in set(map(type, a.ravel()))):
                raise TypeError("an entry is not a number")
        elif a.dtype.kind not in "iufc":
            raise TypeError(f"entries of dtype {a.dtype} are not numbers")
        return np.array(a, dtype=dtype)
    except (ValueError, TypeError, OverflowError) as exc:
        reason = ("an integer beyond the double range" if isinstance(exc, OverflowError)
                  else "an entry that is not a number")
        raise InvalidArrayError(f"{what} is not a rectangular array of numbers", reason) from exc


def as_index(i, n: int) -> int:
    """``i`` as an index for n qubits, else OutOfRangeError: not an
    integer, or outside [0, 2**n)."""
    i = _as_integer(i, "index", 0)
    # i < 2**n holds when i has at most n bits, so no shift need pass i's length
    return _as_integer(i, "index", 0, (1 << min(n, i.bit_length())) - 1)


def _as_table(t, what: str) -> tuple[np.ndarray, int]:
    """``t`` as a complex table of shape ``(2**n, 2**n, eve_dim)``, with
    n >= 1 and eve_dim >= 1, and its side ``2**n``.  An array numpy cannot
    read raises InvalidArrayError (``_as_array``), and any other shape
    DimensionMismatchError, each naming the table as ``what``."""
    t = _as_array(t, complex, what)
    shape = t.shape
    d = shape[0] if len(shape) == 3 else 0
    if d < 2 or d & (d - 1) or shape[1] != d or shape[2] < 1:
        raise DimensionMismatchError(
            f"{what} is {shape}, expected (2**n, 2**n, eve_dim) with n >= 1 and eve_dim >= 1"
        )
    return t, d


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; the left factor owns the most significant bits."""
    return np.kron(_as_array(a, complex, "left factor"), _as_array(b, complex, "right factor"))


def hermitian_residual(a: np.ndarray) -> float:
    """Max-norm deviation of a square matrix, or of a stack of them, from
    its conjugate transpose."""
    a = np.asarray(a)
    return float(abs(a - a.conj().swapaxes(-1, -2)).max()) if a.size else 0.0


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition result: eigenvalues sorted descending, with the
    matching orthonormal eigenvectors as columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _check_hermitian(a: np.ndarray) -> np.ndarray:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError("expected a square matrix")
    if not np.isfinite(a).all():  # before the residual, where inf - inf would warn
        raise EigensolverError("matrix has non-finite entries")
    res = hermitian_residual(a)
    if res > TAU_HERM:
        raise NotHermitianError(f"Hermitian residual {res:.3e} exceeds {TAU_HERM}")
    return a


def _eigh(a: np.ndarray, want_vectors: bool):
    """LAPACK eigensolve of the Hermitian part of ``a``, one matrix or a
    stack of shape (..., m, m).

    Returns (eigenvalues ascending, eigenvectors or None).  LAPACK does not
    reliably fail on NaN or infinite entries, so they are rejected first;
    both they and a LAPACK failure raise EigensolverError.
    """
    if not np.isfinite(a).all():
        raise EigensolverError("matrix has non-finite entries")
    a = 0.5 * (a + a.conj().swapaxes(-1, -2))  # remove sub-tolerance asymmetry
    try:
        if want_vectors:
            return np.linalg.eigh(a)
        return np.linalg.eigvalsh(a), None
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver failed: {exc}") from exc


def _svd(a: np.ndarray, weight: float):
    """Thin LAPACK SVD ``(u, s, vh)`` of ``weight * a``.  Both non-finite
    entries of ``a``, rejected before the weighting could turn them into NaN
    with a warning, and a LAPACK failure raise EigensolverError."""
    if not np.isfinite(a).all():
        raise EigensolverError("matrix has non-finite entries")
    try:
        return np.linalg.svd(weight * a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"singular value decomposition failed: {exc}") from exc


def hermitian_eigendecomposition(a: np.ndarray) -> Spectrum:
    """Full eigendecomposition of a Hermitian matrix.

    Raises NotHermitianError when the symmetry check fails and
    EigensolverError on non-finite entries.
    """
    a = _check_hermitian(_as_array(a, complex, "matrix"))
    w, v = _eigh(a, want_vectors=True)
    order = np.argsort(-w, kind="stable")
    return Spectrum(eigenvalues=w[order], eigenvectors=v[:, order])


def _min_eigenvalue_at_least(a: np.ndarray, floor: float) -> bool:
    """True when the smallest eigenvalue of every matrix in a Hermitian
    stack ``a[..., m, m]`` is >= -floor; the POVM rule of its one caller,
    ``bounds._check_povm_stack`` (a state's spectrum is ``density_spectra``'s).

    Fast path: one batched Cholesky of ``a + floor*I``, cheaper than an
    eigensolve, succeeds iff every shifted matrix is positive definite.  On
    failure (boundary or violation), or a non-finite factor, fall back to the
    eigenvalues for the exact verdict; non-finite input raises EigensolverError.
    """
    try:
        factor = np.linalg.cholesky(a + floor * np.eye(a.shape[-1]))
        if np.isfinite(factor).all():
            return True
    except np.linalg.LinAlgError:
        pass
    return bool(_eigh(a, want_vectors=False)[0].min() >= -floor)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian (TAU_HERM), positive semidefinite, unit-trace complex matrix:
    its spectrum is checked by ``density_spectra``, the rule of every state."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _check_hermitian(_as_array(self.matrix, complex, "density matrix"))
        density_spectra(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, amplitudes: np.ndarray) -> "DensityMatrix":
        """Rank-1 state |v><v| from a normalized amplitude vector."""
        v = _as_array(amplitudes, complex, "amplitude vector").reshape(-1)
        return cls(np.outer(v, v.conj()))


def _matrix_of(rho) -> np.ndarray:
    if isinstance(rho, DensityMatrix):
        return rho.matrix
    return _as_array(rho, complex, "density matrix")


def partial_trace(rho, dim_left: int, dim_right: int, keep: str = "left") -> DensityMatrix:
    """Reduced state of one tensor factor of a bipartite density matrix.

    ``keep`` selects the surviving factor, "left" or "right"; the left
    factor owns the most significant bits.
    """
    m = _matrix_of(rho)
    dim_left, dim_right = (_as_integer(x, "dimension", 1) for x in (dim_left, dim_right))
    d = dim_left * dim_right
    if m.shape != (d, d):
        raise DimensionMismatchError(
            f"matrix is {m.shape}, expected a square of side {_shown(d)}, "
            f"the product of dimensions {_shown(dim_left)} and {_shown(dim_right)}"
        )
    t = m.reshape(dim_left, dim_right, dim_left, dim_right)
    if keep == "left":
        red = np.einsum("akbk->ab", t)
    elif keep == "right":
        red = np.einsum("kakb->ab", t)
    else:
        raise OutOfRangeError(f"keep must be 'left' or 'right', not {keep!r}")
    return DensityMatrix(red)


def _check_probabilities(p, error: type[MubeveError], what="probabilities") -> None:
    """Raise ``error`` unless every row (last axis) of ``p`` is a
    probability vector: finite, no entry below -TAU_PSD, and a sum within
    TAU_TR of 1.  ``what`` names the rows in the message.

    A valid ``p`` costs one minimum and one row-sum deviation.  The minimum
    comes first, so that NaN and -inf fail before any sum could meet them;
    only a failing ``p`` runs the checks below, in the order of their
    messages."""
    if p.size and p.min() >= -TAU_PSD and abs(p.sum(axis=-1) - 1.0).max() <= TAU_TR:
        return
    if not np.isfinite(p).all():
        raise error(f"{what}: non-finite entries")
    if p.size and float(p.min()) < -TAU_PSD:
        raise error(f"{what}: entry {p.min():.3e} below -{TAU_PSD}")
    dev = float(np.max(np.abs(p.sum(axis=-1) - 1.0), initial=0.0))
    if dev > TAU_TR:
        raise error(f"{what}: sum deviates from 1 by {dev:.3e}, beyond {TAU_TR}")


def density_spectra(m, union: bool = False) -> np.ndarray:
    """Eigenvalues, descending, of each Hermitian matrix in a stack
    ``m[..., k, k]``, checked like the spectra of density matrices.

    Each spectrum must pass ``_check_probabilities``, its sum being the
    trace, else InvalidStateError.  With ``union`` the stack is the
    block-diagonal form of one state, so only the union of its spectra
    must sum to 1.  Non-finite entries raise EigensolverError.
    """
    w = _eigh(m, want_vectors=False)[0][..., ::-1]
    _check_probabilities(w.reshape(1, -1) if union else w, InvalidStateError, "spectrum")
    return w


def mixture_spectra(vectors, weight: float = 1.0, union: bool = False) -> np.ndarray:
    """Eigenvalues, descending, of ``rho = weight * sum_r |v_r><v_r|`` for
    each stack of rows ``vectors[..., r, :]``, one spectrum per leading
    index.

    ``rho`` shares its nonzero spectrum with the row Gram matrix
    ``weight * v v^H`` (Gram/ensemble duality), so the eigensolve runs on
    whichever of the two is strictly smaller; a tie takes the dense
    ``rho``.  All stacks go through one batched eigensolve.  The weight
    multiplies the product, so a power of two adds no rounding.  The
    spectra are checked by ``density_spectra``, each one or, with
    ``union``, all together.
    """
    v = np.asarray(vectors, dtype=complex)
    rows, dim = v.shape[-2:]
    if rows < dim:
        m = v @ v.conj().swapaxes(-1, -2)       # Gram: <v_s|v_r>
    else:
        m = v.swapaxes(-1, -2) @ v.conj()       # dense: sum_r |v_r><v_r|
    return density_spectra(weight * m, union)


def _entropy_bits(p: np.ndarray) -> np.ndarray:
    """``-sum p log2 p`` in bits over the last axis, unchecked.  An entry
    <= 0 adds a zero term, so rounding negatives read as 0 without a clip."""
    logs = np.log2(p, out=np.zeros(p.shape), where=p > 0.0)
    return 0.0 - (p * logs).sum(axis=-1)  # not -sum, which reads -0.0 for 0.0


def spectral_entropies(w) -> np.ndarray:
    """Entropy in bits of each row (last axis) of a table of eigenvalues,
    taken over the positive part renormalized to unit sum.

    Eigenvalues <= 0 are dropped and the rest divided by their sum, so every
    p lies in (0, 1] and every term -p*log2(p) is >= 0.  Trace rounding does
    not read as entropy: a 1x1 state, whose one eigenvalue may be 1 - eps or
    1 + eps, has entropy exactly 0.  A row without positive entries has
    entropy 0.
    """
    w = np.asarray(w, dtype=float)
    p = np.where(w > 0.0, w, 0.0)
    total = p.sum(axis=-1, keepdims=True)
    # a row whose total is not positive holds only zeros, and keeps them
    return _entropy_bits(np.divide(p, total, out=p, where=total > 0.0))


@functools.cache
def sign_grid(n: int) -> np.ndarray:
    """2^n x 2^n matrix of (-1)**(i.j) with the bit-wise dot product, the
    n-fold Sylvester (Kronecker) power of ``[[1, 1], [1, -1]]``: the left
    factor owns the most significant bit.

    Built once per n and read-only, since every caller shares it.
    """
    grid = functools.reduce(np.kron, [[[1.0, 1.0], [1.0, -1.0]]] * n, np.ones((1, 1)))
    grid.setflags(write=False)
    return grid


def walsh(a: np.ndarray, axis: int) -> np.ndarray:
    """Walsh-Hadamard transform of ``a`` along ``axis``, of length 2**n,
    ``out[.., x, ..] = sum_b (-1)**(x.b) a[.., b, ..]``, as one matrix
    product with ``sign_grid(n)``."""
    t = a.swapaxes(0, axis)
    d = t.shape[0]
    out = sign_grid(d.bit_length() - 1) @ t.reshape(d, -1)
    return out.reshape(t.shape).swapaxes(0, axis)


@functools.cache
def xor_grid(n: int) -> np.ndarray:
    """2^n x 2^n integer matrix of i XOR j, usable as a fancy index.

    Built once per n and read-only, since every caller shares it.
    """
    idx = np.arange(1 << n)
    grid = idx[:, None] ^ idx[None, :]
    grid.setflags(write=False)
    return grid


def xor_regroup(a) -> np.ndarray:
    """``out[c, i] = a[i, i ^ c]`` over the two leading axes of ``a``, both
    of length 2**n: row c gathers the entries whose indices differ by c."""
    d = a.shape[0]
    return a[np.arange(d)[None, :], xor_grid(d.bit_length() - 1)]


def mub_transform(n: int) -> np.ndarray:
    """Change of basis between the computational basis and its conjugate.

    Real orthogonal, symmetric, involutive: entry (i, k) equals
    ``2**(-n/2) * (-1)**(i.k)``, so the two bases are mutually unbiased.
    """
    n = _as_integer(n, "qubit count", 1)
    if n > N_MAX:
        raise DimensionTooLargeError(f"qubit count {_shown(n)} exceeds {N_MAX}")
    return sign_grid(n) * 2.0 ** (-n / 2.0)
