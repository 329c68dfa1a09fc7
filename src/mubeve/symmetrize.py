"""Symmetrized attacks and the Gram-state spectrum identity.

Enlarging the apparatus by n ancilla qubits and averaging over all XOR
shifts makes the eavesdropper's states covariant: measuring the ancilla
yields a uniformly random shift m and leaves exactly the original
apparatus state for the shifted input.  The purifications of the
symmetrized states have a Gram matrix whose (i, j) entry depends only on
i XOR j, and the Fourier spectrum of that profile reproduces the
conjugate-basis error distribution.  That identity is the numerical
engine behind the audit bounds and is re-verified on every audit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotUnitaryError,
    TranslationInvarianceError,
)
from .channel import AttackChannel, Basis, ErrorDistribution
from .linalg import (
    TAU_UNIT,
    DensityMatrix,
    as_index,
    hermitian_eigenvalues,
    sign_grid,
)

_F_SPREAD_TOL = 1e-10
_SPECTRUM_XCHECK_TOL = 1e-9


@dataclass(frozen=True)
class SymmetrizedChannel:
    """Kraus table of the shift-averaged attack on the enlarged apparatus.

    ``kraus_sym`` has shape (2**n, 2**n, 2**n * eve_dim); the shift
    register owns the most significant bits of the apparatus index.
    """

    n: int
    eve_dim: int
    kraus_sym: np.ndarray

    def __post_init__(self):
        k = np.array(self.kraus_sym, dtype=complex)
        d = 1 << self.n
        if k.shape != (d, d, d * self.eve_dim):
            raise DimensionMismatchError(
                f"table is {k.shape}, expected {(d, d, d * self.eve_dim)}"
            )
        gram = np.einsum("ijx,kjx->ik", k.conj(), k)
        res = float(np.max(np.abs(gram - np.eye(d))))
        if not res <= TAU_UNIT:  # also catches a NaN residual
            raise NotUnitaryError(
                f"unitarity residual {res:.3e} exceeds {TAU_UNIT}"
            )
        k.setflags(write=False)
        object.__setattr__(self, "kraus_sym", k)

    @property
    def dim(self) -> int:
        """Enlarged apparatus dimension."""
        return (1 << self.n) * self.eve_dim


@dataclass(frozen=True)
class PurificationSet:
    """Purifications of the symmetrized apparatus states.

    ``vectors[i]`` lives in (enlarged apparatus) x (n-qubit reference),
    with the reference owning the least significant index bits.
    """

    n: int
    eve_dim: int
    vectors: np.ndarray

    def __post_init__(self):
        d = 1 << self.n
        vecs = np.array(self.vectors, dtype=complex)
        if vecs.shape != (d, d * self.eve_dim * d):
            raise DimensionMismatchError(
                f"vectors are {vecs.shape}, expected {(d, d * self.eve_dim * d)}"
            )
        norms = np.sum(np.abs(vecs) ** 2, axis=1)
        if float(np.max(np.abs(norms - 1.0))) > 1e-9:
            raise NotUnitaryError("purification vectors are not normalized")
        vecs.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)


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
        if float(lam.min()) < -1e-10:
            raise TranslationInvarianceError(
                f"negative Fourier eigenvalue {lam.min():.3e}"
            )
        if abs(float(lam.sum()) - 1.0) > 1e-9:
            raise TranslationInvarianceError("Fourier eigenvalues do not sum to 1")
        f.setflags(write=False)
        lam.setflags(write=False)
        object.__setattr__(self, "f_values", f)
        object.__setattr__(self, "lambdas", lam)


def symmetrize(ch: AttackChannel) -> SymmetrizedChannel:
    """Build the shift-averaged Kraus table on the enlarged apparatus.

    ``kraus_sym[i, j] = 2**(-n/2) * sum_m (-1)**(m.(i^j))
    |m> (x) kraus[i^m, j^m]``.
    """
    if ch.basis_label is not Basis.B:
        raise ValueError("channel must be expressed in basis b")
    d = ch.dim
    de = ch.eve_dim
    signs = sign_grid(ch.n)
    idx = np.arange(d)
    xor_grid = idx[:, None] ^ idx[None, :]
    out = np.empty((d, d, d * de), dtype=complex)
    amp = 2.0 ** (-ch.n / 2.0)
    for m in range(d):
        phase = signs[m, xor_grid]  # (-1)**(m.(i^j)) as an (i, j) grid
        shifted = ch.kraus[np.ix_(idx ^ m, idx ^ m)]
        out[:, :, m * de:(m + 1) * de] = amp * phase[:, :, None] * shifted
    return SymmetrizedChannel(n=ch.n, eve_dim=de, kraus_sym=out)


def eve_state_sym(sym: SymmetrizedChannel, i) -> DensityMatrix:
    """Enlarged-apparatus state for input string i under the symmetrized attack."""
    i = as_index(i, sym.n)
    k = sym.kraus_sym[i]
    return DensityMatrix(np.einsum("jx,jy->xy", k, k.conj()))


def project_ancilla(sym: SymmetrizedChannel, i, m) -> tuple[float, DensityMatrix]:
    """Outcome probability and post-measurement apparatus state when the
    shift register is read out with result m.

    The probability is 2**-n for every (i, m), and the remaining state
    equals the original attack's apparatus state for input i XOR m.
    """
    i = as_index(i, sym.n)
    m = as_index(m, sym.n)
    de = sym.eve_dim
    block = sym.kraus_sym[i, :, m * de:(m + 1) * de]
    raw = np.einsum("jd,je->de", block, block.conj())
    prob = float(np.trace(raw).real)
    return prob, DensityMatrix(raw / prob)


def purification_vectors(sym: SymmetrizedChannel) -> PurificationSet:
    """Attach an n-qubit reference recording i XOR j to each Kraus vector.

    ``vectors[i] = sum_j kraus_sym[i, j] (x) |i^j>``; each vector is
    normalized by row orthonormality of the table, and tracing out the
    reference recovers the symmetrized apparatus state.
    """
    d = 1 << sym.n
    idx = np.arange(d)
    vecs = np.empty((d, sym.dim * d), dtype=complex)
    for i in range(d):
        # Reference slot p holds the Kraus vector with j = i ^ p.
        by_slot = sym.kraus_sym[i, idx ^ i, :]        # (p, apparatus)
        vecs[i] = by_slot.T.reshape(-1)               # apparatus-major layout
    return PurificationSet(n=sym.n, eve_dim=sym.eve_dim, vectors=vecs)


def sigma_matrix(pur: PurificationSet) -> SigmaAnalysis:
    """Gram state of the purification family and its Fourier spectrum.

    The Gram matrix is authoritative: ``sigma[i, j] = 2**-n <phi_j|phi_i>``.
    The overlap profile must depend on i XOR j only; the representative
    spread is checked to 1e-10 and a violation raises
    TranslationInvarianceError (an implementation bug, not a bad input).
    """
    d = 1 << pur.n
    vecs = pur.vectors
    gram = vecs @ vecs.conj().T          # gram[i, j] = <phi_j|phi_i>
    idx = np.arange(d)
    reps = np.empty((d, d), dtype=complex)
    for t in range(d):
        reps[t] = gram[idx, idx ^ t]
    spread = float(np.max(np.abs(reps - reps[:, :1])))
    if spread > _F_SPREAD_TOL:
        raise TranslationInvarianceError(
            f"overlap profile varies by {spread:.3e} across representatives"
        )
    f_values = gram[0, :].copy()         # representative i = 0
    lambdas_c = sign_grid(pur.n) @ f_values / float(d)
    if float(np.max(np.abs(lambdas_c.imag))) > 1e-9:
        raise TranslationInvarianceError("Fourier eigenvalues are not real")
    return SigmaAnalysis(
        n=pur.n,
        sigma=DensityMatrix(gram / float(d)),
        f_values=f_values,
        lambdas=lambdas_c.real.copy(),
    )


def sigma_spectrum_check(sa: SigmaAnalysis, ed: ErrorDistribution) -> float:
    """Largest deviation between the Fourier eigenvalues and the
    conjugate-basis error distribution, index by index.

    Also cross-checks the Fourier eigenvalues against the Hermitian
    eigensolver as multisets; disagreement beyond 1e-9 means the two
    routes diverged and is raised as an internal error.
    """
    if sa.n != ed.n:
        raise DimensionMismatchError("qubit counts disagree")
    deviation = float(np.max(np.abs(sa.lambdas - ed.probs)))
    solver = hermitian_eigenvalues(sa.sigma.matrix)
    fourier = np.sort(sa.lambdas)[::-1]
    xcheck = float(np.max(np.abs(solver - fourier)))
    if xcheck > _SPECTRUM_XCHECK_TOL:
        raise TranslationInvarianceError(
            f"Fourier and eigensolver spectra disagree by {xcheck:.3e}"
        )
    return deviation
