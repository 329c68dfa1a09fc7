"""Fixed-basis eavesdropping channels on n-qubit strings.

An attack is stored as its Kraus-vector table: ``kraus[i, j]`` is the
(unnormalized) apparatus vector the eavesdropper holds when the input
string was ``i`` and the string forwarded to the receiver is ``j``.  Row
orthonormality of the table, ``sum_j <E_ij|E_kj> = delta_ik``, encodes
unitarity of the underlying interaction; only the slice of the unitary
acting on the fixed apparatus start vector is ever stored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotADistributionError,
    NotUnitaryError,
)
from .linalg import (
    TAU_UNIT,
    DensityMatrix,
    _as_array,
    _as_integer,
    _check_probabilities,
    _shown,
    as_index,
    walsh,
    xor_regroup,
)


@dataclass(frozen=True)
class AttackChannel:
    """Kraus-vector family of one fixed eavesdropping interaction.

    ``kraus`` has shape (2**n, 2**n, eve_dim); the apparatus dimension
    ``eve_dim`` may be 1 (the eavesdropper keeps nothing).  ``n`` and
    ``eve_dim`` must be integers (OutOfRangeError otherwise).
    """

    n: int
    eve_dim: int
    kraus: np.ndarray

    def __post_init__(self):
        k = _as_array(self.kraus, complex, "kraus table")
        n, eve_dim = _as_integer(self.n, "qubit count"), _as_integer(self.eve_dim, "eve_dim")
        if n < 1 or eve_dim < 1:
            raise DimensionMismatchError("n and eve_dim must be positive")
        d = k.shape[0] if k.ndim == 3 else 0
        # capped at d's bit length, the shift still exceeds d wherever 2**n would
        if k.shape != (d, d, eve_dim) or d != 1 << min(n, d.bit_length()):
            raise DimensionMismatchError(
                f"kraus table is {k.shape}, expected (2**n, 2**n, eve_dim) "
                f"for qubit count {_shown(n)} and eve_dim {_shown(eve_dim)}"
            )
        rows = k.reshape(d, -1)              # row i: kraus[i] flattened
        gram = rows.conj() @ rows.T          # sum_j <K_ij|K_kj>, one BLAS product
        res = float(abs(gram - np.eye(d)).max())
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
    input by each XOR pattern c; entry 0 is the no-error probability.

    Checked by the one probability rule (``_check_probabilities``) and
    nothing else: an entry may exceed 1 by the rule's sum tolerance, as the
    distribution of a channel accepted at ``TAU_UNIT`` can."""

    n: int
    probs: np.ndarray

    def __post_init__(self):
        p = _as_array(self.probs, float, "error probabilities").reshape(-1)
        n = _as_integer(self.n, "qubit count", 1)
        if p.size != 1 << min(n, p.size.bit_length()):  # as in AttackChannel
            raise DimensionMismatchError(
                f"distribution has {p.size} entries, expected 2**n for qubit count {_shown(n)}"
            )
        _check_probabilities(p, NotADistributionError, "error probabilities")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def delta(self) -> float:
        """Total error probability, the mass on nonzero patterns."""
        return float(self.probs[1:].sum())


def from_unitary(u: np.ndarray, ancilla: np.ndarray, n: int) -> AttackChannel:
    """Extract the Kraus table of a unitary acting on apparatus x system.

    The apparatus factor owns the most significant bits of the joint index.
    ``kraus[i, j] = (I_E (x) <j|) u (|ancilla> (x) |i>)``.  An entry of
    ``u`` or ``ancilla`` that is not finite or has a part beyond 1 + TAU_UNIT
    in size, as no unitary or unit vector has, is a NotUnitaryError raised
    before any product: NaN fails no later comparison, and inf or a huge
    entry would overflow in one.
    """
    u = _as_array(u, complex, "unitary")
    anc = _as_array(ancilla, complex, "ancilla").reshape(-1)
    if _as_integer(n, "qubit count") < 1:
        raise DimensionMismatchError("n must be positive")
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatchError("unitary must be square")
    size = u.shape[0]
    if (size & -size).bit_length() <= n:  # size & -size is size's largest power-of-two factor
        raise DimensionMismatchError(
            f"unitary dimension {size} is not a multiple of 2**n for qubit count {_shown(n)}"
        )
    d = 1 << n
    eve_dim = size // d
    if anc.shape != (eve_dim,):
        raise DimensionMismatchError(
            f"ancilla has dimension {anc.size}, expected {eve_dim}"
        )
    for what, a in (("unitary", u), ("ancilla", anc)):
        if not np.all(np.abs([a.real, a.imag]) <= 1.0 + TAU_UNIT):
            raise NotUnitaryError(f"{what} entries must be finite, with parts in [-1, 1]")
    if abs(np.linalg.norm(anc) - 1.0) > TAU_UNIT:
        raise NotUnitaryError("ancilla vector is not normalized")
    res = float(abs(u.conj().T @ u - np.eye(u.shape[0])).max())
    if not res <= TAU_UNIT:
        raise NotUnitaryError(f"unitarity residual {res:.3e} exceeds {TAU_UNIT}")

    # Columns of `ins` are the joint inputs |ancilla> (x) |i>.
    ins = np.kron(anc[:, None], np.eye(d, dtype=complex))
    outs = u @ ins                       # (eve_dim * d, d), column i
    kraus = outs.reshape(eve_dim, d, d).transpose(2, 1, 0)
    return AttackChannel(n=n, eve_dim=eve_dim, kraus=kraus)


def _conjugate_kraus(n: int, kraus: np.ndarray) -> np.ndarray:
    """``kraus'[l, s] = 2**-n * sum_ij (-1)**(s.j + i.l) kraus[i, j]``, a
    Walsh transform over i and one over j."""
    return walsh(walsh(kraus, 0), 1) / float(1 << n)


def eve_state(ch: AttackChannel, i) -> DensityMatrix:
    """Apparatus state held by the eavesdropper for input string i."""
    i = as_index(i, ch.n)
    k = ch.kraus[i]
    return DensityMatrix(np.einsum("jd,je->de", k, k.conj()))


def xor_error_distribution(ch: AttackChannel) -> ErrorDistribution:
    """Distribution of (outcome XOR input) for conjugate-basis encoding,
    averaged over uniform input strings."""
    kbar = _conjugate_kraus(ch.n, ch.kraus)
    norms = (abs(kbar) ** 2).sum(axis=2)  # (input, outcome)
    # row c averages norms[i, i ^ c] over the inputs i
    probs = xor_regroup(norms).mean(axis=1)
    return ErrorDistribution(n=ch.n, probs=probs)
