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

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    EigensolverError,
    InvalidStateError,
    NotADistributionError,
    NotHermitianError,
    OutOfRangeError,
)

# Shared tolerances.  Double precision with dimensions up to 512.
TAU_HERM = 1e-9
TAU_TR = 1e-9
TAU_PSD = 1e-10
TAU_EIG = 1e-10
TAU_UNIT = 1e-9

# Largest supported qubit count for basis transforms and channels.
N_MAX = 4


def bit_parity(x: int) -> int:
    """Parity (0 or 1) of the number of set bits."""
    return int(x).bit_count() & 1


def bit_dot(a: int, b: int) -> int:
    """Bit-wise product of two indices, summed mod 2."""
    return (int(a) & int(b)).bit_count() & 1


@dataclass(frozen=True)
class BitString:
    """An n-bit string stored as an unsigned integer."""

    n: int
    value: int

    def __post_init__(self):
        if self.n < 0 or not 0 <= self.value < (1 << self.n):
            raise OutOfRangeError(
                f"value {self.value} does not fit in {self.n} bits"
            )

    def xor(self, other: "BitString") -> "BitString":
        if self.n != other.n:
            raise DimensionMismatchError("bit strings have different lengths")
        return BitString(self.n, self.value ^ other.value)

    def dot(self, other: "BitString") -> int:
        if self.n != other.n:
            raise DimensionMismatchError("bit strings have different lengths")
        return bit_dot(self.value, other.value)

    def __int__(self) -> int:
        return self.value

    def __index__(self) -> int:
        return self.value


def as_index(i, n: int) -> int:
    """Coerce an int or BitString to a validated index for n qubits."""
    if isinstance(i, BitString):
        if i.n != n:
            raise DimensionMismatchError(
                f"bit string has {i.n} bits, channel has {n}"
            )
        return i.value
    i = int(i)
    if not 0 <= i < (1 << n):
        raise OutOfRangeError(f"index {i} out of range for {n} qubits")
    return i


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; the left factor owns the most significant bits."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def hermitian_residual(a: np.ndarray) -> float:
    """Max-norm deviation of a square matrix, or of a stack of them, from
    its conjugate transpose."""
    a = np.asarray(a)
    return float(np.max(np.abs(a - a.conj().swapaxes(-1, -2)))) if a.size else 0.0


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition result: eigenvalues sorted descending, with the
    matching orthonormal eigenvectors as columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _check_hermitian(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError("expected a square matrix")
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


def hermitian_eigendecomposition(a: np.ndarray) -> Spectrum:
    """Full eigendecomposition of a Hermitian matrix.

    Raises NotHermitianError when the symmetry check fails and
    EigensolverError on non-finite entries.
    """
    a = _check_hermitian(a)
    w, v = _eigh(a, want_vectors=True)
    order = np.argsort(-w, kind="stable")
    return Spectrum(eigenvalues=w[order], eigenvectors=v[:, order])


def hermitian_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues only, sorted descending."""
    a = _check_hermitian(a)
    w, _ = _eigh(a, want_vectors=False)
    return w[::-1]


def _min_eigenvalue_at_least(a: np.ndarray, floor: float) -> bool:
    """True when the smallest eigenvalue of Hermitian ``a``, or of every
    matrix in a stack ``a[..., m, m]``, is >= -floor.

    Fast path: one (batched) Cholesky of ``a + floor*I`` succeeds iff every
    shifted matrix is positive definite.  On failure (boundary or
    violation) fall back to the eigenvalues for the exact verdict.  A
    non-finite factor also falls back, so non-finite input raises
    EigensolverError there.
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
    """Hermitian, positive semidefinite, unit-trace complex matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError("density matrix must be square")
        res = hermitian_residual(m)
        if res > TAU_HERM:
            raise NotHermitianError(
                f"Hermitian residual {res:.3e} exceeds {TAU_HERM}"
            )
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TAU_TR:
            raise InvalidStateError(f"trace {tr} deviates from 1 beyond {TAU_TR}")
        if not _min_eigenvalue_at_least(m, TAU_PSD):
            raise InvalidStateError(
                f"smallest eigenvalue below -{TAU_PSD}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, amplitudes: np.ndarray) -> "DensityMatrix":
        """Rank-1 state |v><v| from a normalized amplitude vector."""
        v = np.asarray(amplitudes, dtype=complex).reshape(-1)
        return cls(np.outer(v, v.conj()))


def _matrix_of(rho) -> np.ndarray:
    if isinstance(rho, DensityMatrix):
        return rho.matrix
    return np.asarray(rho, dtype=complex)


def partial_trace(rho, dim_left: int, dim_right: int, keep: str = "left") -> DensityMatrix:
    """Reduced state of one tensor factor of a bipartite density matrix.

    ``keep`` selects the surviving factor, "left" or "right"; the left
    factor owns the most significant bits.
    """
    m = _matrix_of(rho)
    d = dim_left * dim_right
    if m.shape != (d, d):
        raise DimensionMismatchError(
            f"matrix is {m.shape}, expected {(d, d)} for {dim_left}x{dim_right}"
        )
    t = m.reshape(dim_left, dim_right, dim_left, dim_right)
    if keep == "left":
        red = np.einsum("akbk->ab", t)
    elif keep == "right":
        red = np.einsum("kakb->ab", t)
    else:
        raise ValueError("keep must be 'left' or 'right'")
    return DensityMatrix(red)


def mixture_spectra(vectors, weight: float = 1.0) -> np.ndarray:
    """Eigenvalues, descending, of ``rho = weight * sum_r |v_r><v_r|`` for
    each stack of rows ``vectors[..., r, :]``, one spectrum per leading
    index.

    ``rho`` shares its nonzero spectrum with the row Gram matrix
    ``weight * v v^H`` (Gram/ensemble duality), so the eigensolve runs on
    whichever of the two is strictly smaller; a tie takes the dense
    ``rho``.  All stacks go through one batched eigensolve.  The weight
    multiplies the product, so a power of two adds no rounding.

    Each spectrum gets the checks of ``DensityMatrix``: it must sum to 1
    within TAU_TR and have no eigenvalue below -TAU_PSD, else
    InvalidStateError.  Non-finite vectors raise EigensolverError.
    """
    v = np.asarray(vectors, dtype=complex)
    rows, dim = v.shape[-2:]
    if rows < dim:
        m = v @ v.conj().swapaxes(-1, -2)       # Gram: <v_s|v_r>
    else:
        m = v.swapaxes(-1, -2) @ v.conj()       # dense: sum_r |v_r><v_r|
    w = _eigh(weight * m, want_vectors=False)[0][..., ::-1]
    traces = w.sum(axis=-1)
    bad = np.abs(traces - 1.0) > TAU_TR
    if bad.any():
        tr = float(traces[bad][0])
        raise InvalidStateError(f"trace {tr} deviates from 1 beyond {TAU_TR}")
    if w.size and float(w.min()) < -TAU_PSD:
        raise InvalidStateError(f"smallest eigenvalue below -{TAU_PSD}")
    return w


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
    p = np.divide(p, total, out=np.zeros_like(p), where=total > 0.0)
    logs = np.log2(p, out=np.zeros_like(p), where=p > 0.0)
    return -np.sum(p * logs, axis=-1) + 0.0  # normalize -0.0


def von_neumann_entropy(rho) -> float:
    """Entropy in bits of one density matrix; the one-matrix case of
    :func:`spectral_entropies`, with the same positive-part policy."""
    return float(spectral_entropies(hermitian_eigenvalues(_matrix_of(rho))))


def shannon_entropies(p) -> np.ndarray:
    """Shannon entropy in bits of each row (last axis) of a probability table.

    Entries in [-TAU_PSD, 0) are clipped to 0; every row must be finite
    and sum to 1 within 1e-9, otherwise NotADistributionError is raised.
    """
    arr = np.asarray(p, dtype=float)
    if not np.isfinite(arr).all():
        raise NotADistributionError("distribution has non-finite entries")
    if arr.size and float(arr.min()) < -TAU_PSD:
        raise NotADistributionError(
            f"entry {arr.min():.3e} below -{TAU_PSD}"
        )
    totals = arr.sum(axis=-1)
    bad = np.abs(totals - 1.0) > 1e-9
    if bad.any():
        total = float(totals[bad][0])
        raise NotADistributionError(f"sum {total!r} deviates from 1 beyond 1e-9")
    q = np.clip(arr, 0.0, None)
    logs = np.log2(q, out=np.zeros_like(q), where=q > 0.0)
    return -np.sum(q * logs, axis=-1) + 0.0  # normalize -0.0


def shannon_entropy(p) -> float:
    """Shannon entropy in bits of one probability sequence; the one-row
    case of :func:`shannon_entropies`, with the same checks."""
    return float(shannon_entropies(np.reshape(p, (1, -1)))[0])


def sign_grid(n: int) -> np.ndarray:
    """2^n x 2^n matrix of (-1)**(i.j) with the bit-wise dot product."""
    d = 1 << n
    idx = np.arange(d)
    dots = np.bitwise_and(idx[:, None], idx[None, :])
    parity = np.zeros((d, d), dtype=int)
    for k in range(n):
        parity ^= (dots >> k) & 1
    return 1.0 - 2.0 * parity


def xor_grid(n: int) -> np.ndarray:
    """2^n x 2^n integer matrix of i XOR j, usable as a fancy index."""
    idx = np.arange(1 << n)
    return idx[:, None] ^ idx[None, :]


def mub_transform(n: int) -> np.ndarray:
    """Change of basis between the computational basis and its conjugate.

    Real orthogonal, symmetric, involutive: entry (i, k) equals
    ``2**(-n/2) * (-1)**(i.k)``, so the two bases are mutually unbiased.
    """
    if n < 1:
        raise OutOfRangeError("qubit count must be at least 1")
    if n > N_MAX:
        raise DimensionTooLargeError(f"qubit count {n} exceeds {N_MAX}")
    return sign_grid(n) * 2.0 ** (-n / 2.0)
