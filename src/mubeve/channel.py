"""Fixed-basis eavesdropping channels on n-qubit strings.

An attack is stored as its Kraus-vector table: ``kraus[i, j]`` is the
(unnormalized) apparatus vector the eavesdropper holds when the input
string was ``i`` and the string forwarded to the receiver is ``j``.  Row
orthonormality of the table, ``sum_j <E_ij|E_kj> = delta_ik``, encodes
unitarity of the underlying interaction; only the slice of the unitary
acting on the fixed apparatus start vector is ever stored.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotADistributionError,
    NotUnitaryError,
    WrongBasisError,
)
from .linalg import (
    TAU_PSD,
    TAU_UNIT,
    DensityMatrix,
    _check_probabilities,
    as_index,
    mub_transform,
    sign_grid,
    xor_regroup,
)


class Basis(enum.Enum):
    """Which encoding basis the Kraus table is expressed in."""

    B = "b"
    B_CONJUGATE = "b_conjugate"


@dataclass(frozen=True)
class AttackChannel:
    """Kraus-vector family of one fixed eavesdropping interaction.

    ``kraus`` has shape (2**n, 2**n, eve_dim); the apparatus dimension
    ``eve_dim`` may be 1 (the eavesdropper keeps nothing).
    """

    n: int
    eve_dim: int
    kraus: np.ndarray
    basis_label: Basis = Basis.B

    def __post_init__(self):
        k = np.array(self.kraus, dtype=complex)
        d = 1 << self.n
        if self.n < 1 or self.eve_dim < 1:
            raise DimensionMismatchError("n and eve_dim must be positive")
        if k.shape != (d, d, self.eve_dim):
            raise DimensionMismatchError(
                f"kraus table is {k.shape}, expected {(d, d, self.eve_dim)}"
            )
        rows = k.reshape(d, -1)              # row i: kraus[i] flattened
        gram = rows.conj() @ rows.T          # sum_j <K_ij|K_kj>, one BLAS product
        res = float(np.max(np.abs(gram - np.eye(d))))
        if not res <= TAU_UNIT:  # also catches a NaN residual
            raise NotUnitaryError(
                f"unitarity residual {res:.3e} exceeds {TAU_UNIT}"
            )
        k.setflags(write=False)
        object.__setattr__(self, "kraus", k)

    @property
    def dim(self) -> int:
        return 1 << self.n


@dataclass(frozen=True)
class ErrorDistribution:
    """Probabilities that the conjugate-basis outcome differs from the
    input by each XOR pattern c; entry 0 is the no-error probability."""

    n: int
    probs: np.ndarray

    def __post_init__(self):
        p = np.array(self.probs, dtype=float).reshape(-1)
        if p.shape != (1 << self.n,):
            raise DimensionMismatchError(
                f"distribution has {p.size} entries, expected {1 << self.n}"
            )
        _check_probabilities(p, NotADistributionError, "error probabilities")
        if float(p.max()) > 1.0 + TAU_PSD:
            raise NotADistributionError("entries outside [0, 1]")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def delta(self) -> float:
        """Total error probability, the mass on nonzero patterns."""
        return float(np.sum(self.probs[1:]))


def require_basis_b(ch: AttackChannel) -> None:
    """Raise WrongBasisError unless the table is expressed in basis b."""
    if ch.basis_label is not Basis.B:
        raise WrongBasisError("channel must be expressed in basis b")


def from_unitary(u: np.ndarray, ancilla: np.ndarray, n: int) -> AttackChannel:
    """Extract the Kraus table of a unitary acting on apparatus x system.

    The apparatus factor owns the most significant bits of the joint index.
    ``kraus[i, j] = (I_E (x) <j|) u (|ancilla> (x) |i>)``.
    """
    u = np.asarray(u, dtype=complex)
    anc = np.asarray(ancilla, dtype=complex).reshape(-1)
    d = 1 << n
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatchError("unitary must be square")
    if u.shape[0] % d != 0:
        raise DimensionMismatchError(
            f"unitary dimension {u.shape[0]} is not a multiple of {d}"
        )
    eve_dim = u.shape[0] // d
    if anc.shape != (eve_dim,):
        raise DimensionMismatchError(
            f"ancilla has dimension {anc.size}, expected {eve_dim}"
        )
    if abs(np.linalg.norm(anc) - 1.0) > TAU_UNIT:
        raise NotUnitaryError("ancilla vector is not normalized")
    res = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
    if res > TAU_UNIT:
        raise NotUnitaryError(f"unitarity residual {res:.3e} exceeds {TAU_UNIT}")

    # Columns of `ins` are the joint inputs |ancilla> (x) |i>.
    ins = np.kron(anc[:, None], np.eye(d, dtype=complex))
    outs = u @ ins                       # (eve_dim * d, d), column i
    kraus = outs.reshape(eve_dim, d, d).transpose(2, 1, 0)
    return AttackChannel(n=n, eve_dim=eve_dim, kraus=kraus, basis_label=Basis.B)


def _conjugate_kraus(n: int, kraus: np.ndarray) -> np.ndarray:
    """``kraus'[l, s] = 2**-n * sum_ij (-1)**(s.j + i.l) kraus[i, j]``, as
    two Walsh-Hadamard matrix products (the sign grid is symmetric)."""
    s = sign_grid(n)
    d = 1 << n
    half = (s @ kraus.reshape(d, -1)).reshape(kraus.shape)  # sums over i
    return s @ half / float(d)                               # sums over j


def to_conjugate_basis(ch: AttackChannel) -> AttackChannel:
    """Re-express the same interaction in the conjugate encoding basis.

    ``kraus'[l, s] = 2**-n * sum_ij (-1)**(s.j + i.l) kraus[i, j]``; the
    transform is an involution and preserves unitarity.
    """
    label = Basis.B_CONJUGATE if ch.basis_label is Basis.B else Basis.B
    return AttackChannel(
        n=ch.n,
        eve_dim=ch.eve_dim,
        kraus=_conjugate_kraus(ch.n, ch.kraus),
        basis_label=label,
    )


def eve_state(ch: AttackChannel, i) -> DensityMatrix:
    """Apparatus state held by the eavesdropper for input string i."""
    i = as_index(i, ch.n)
    k = ch.kraus[i]
    return DensityMatrix(np.einsum("jd,je->de", k, k.conj()))


def eve_states(ch: AttackChannel) -> np.ndarray:
    """All apparatus states as one ``(2**n, eve_dim, eve_dim)`` stack,
    ``rho_i = sum_j |K_ij><K_ij|``, entry for entry equal to the matrices
    of ``eve_state(ch, i)``.

    Not validated one by one: each ``rho_i`` is Hermitian by construction,
    and ``kraus_holevo_chi(ch.kraus)`` checks the unit trace and
    positivity of the same spectra.
    """
    k = ch.kraus
    out = np.empty((ch.dim, ch.eve_dim, ch.eve_dim), dtype=complex)
    return np.einsum("ijd,ije->ide", k, k.conj(), out=out)


def bob_conjugate_state(ch: AttackChannel, i) -> DensityMatrix:
    """State reaching the receiver when string i is sent in the basis
    conjugate to the one the table is expressed in.

    Returned in the computational representation; its diagonal in the
    conjugate basis carries the receiver's outcome probabilities.
    """
    i = as_index(i, ch.n)
    kbar = _conjugate_kraus(ch.n, ch.kraus)[i]
    comps = np.einsum("ld,jd->jl", kbar.conj(), kbar)
    h = mub_transform(ch.n)
    return DensityMatrix(h @ comps @ h)


def xor_error_distribution(ch: AttackChannel) -> ErrorDistribution:
    """Distribution of (outcome XOR input) for conjugate-basis encoding,
    averaged over uniform input strings."""
    require_basis_b(ch)
    kbar = _conjugate_kraus(ch.n, ch.kraus)
    norms = np.sum(np.abs(kbar) ** 2, axis=2)  # (input, outcome)
    # row c averages norms[i, i ^ c] over the inputs i
    probs = xor_regroup(norms).mean(axis=1)
    return ErrorDistribution(n=ch.n, probs=probs)
