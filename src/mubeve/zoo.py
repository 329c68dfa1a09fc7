"""Canonical and random attack constructors used by tests and campaigns."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DimensionTooLargeError,
    OutOfRangeError,
    UnsupportedCombinationError,
)
from .channel import AttackChannel
from .linalg import N_MAX, _as_integer, bit_parity
from .rng import _checked_seed, random_isometry


class Kind(NamedTuple):
    arity: int                            # number of params
    takes: tuple[str, ...]                # the KIND_FIELDS it reads
    apparatus: Callable[[int, int], int]  # apparatus dimension of (n, eve_dim)
    note: str                             # one line for ``mubeve zoo``


# Optional fields of ``AttackSpec`` read only by the kinds that take them.
KIND_FIELDS = ("eve_dim", "seed")

KINDS = {
    "identity": Kind(0, (), lambda n, d: 1,
                     "no interaction; zero disturbance and zero information"),
    "phase_conversion": Kind(0, (), lambda n, d: 1,
                             "per-qubit value flip; deterministic error, no gain"),
    "intercept_resend": Kind(0, (), lambda n, d: 1 << n,
                             "measure in basis b and resend; pointer per string"),
    "cnot_probe": Kind(0, (), lambda n, d: 1 << n,
                       "per-qubit copy into fresh ancilla qubits"),
    "probe_overlap": Kind(1, (), lambda n, d: 2,
                          "n=1 probe pair with overlap cos(theta); params: [theta]"),
    "random_unitary": Kind(0, KIND_FIELDS, lambda n, d: d,
                           "seeded Haar-style interaction; fields: eve_dim, seed"),
}

MAX_TOTAL_DIM = 512

# Work limits of a document, beside the cell limits.  A (1, 256) basis of
# the measured search takes about 15 ms (2-core x86 VM, one BLAS thread),
# so the largest search takes about 15 s.
MAX_POVM_SAMPLES = 1024
MAX_COUNT = 1024         # attacks per campaign cell
MAX_GRID_CELLS = 64
MAX_SWEEP_THETAS = 1024


def check_cell(n: int, eve_dim: int) -> None:
    """Reject a (qubit count, apparatus dimension) cell outside the
    supported limits: ``1 <= n <= N_MAX`` (OutOfRangeError), ``eve_dim >= 1``
    (OutOfRangeError) and ``eve_dim * 2**n <= MAX_TOTAL_DIM``
    (DimensionTooLargeError).  A non-integer is an OutOfRangeError."""
    _as_integer(n, "qubit count", 1, N_MAX)
    _as_integer(eve_dim, "eve_dim", 1)
    total = eve_dim * (1 << n)
    if total > MAX_TOTAL_DIM:
        raise DimensionTooLargeError(
            f"total dimension {total} exceeds {MAX_TOTAL_DIM}"
        )


def check_takes(kind: str, key: str) -> None:
    """UnsupportedCombinationError when a known ``kind`` does not take the
    ``KIND_FIELDS`` field ``key``; an unknown kind is left to the kind check."""
    if kind in KINDS and key not in KINDS[kind].takes:
        takers = " or ".join(k for k, entry in KINDS.items() if key in entry.takes)
        raise UnsupportedCombinationError(f"only {takers} takes {key}, not {kind!r}")


@dataclass(frozen=True)
class AttackSpec:
    """Named attack with its parameters.

    ``params`` carries the probe angle for ``probe_overlap``; ``eve_dim``
    and ``seed`` belong to the kinds whose ``KINDS`` entry takes them, and
    every other kind rejects values other than the defaults.  The cell is
    checked at the apparatus size the kind builds.  Construction rejects
    every spec that ``make_attack`` could not build or would ignore a field
    of, so a spec can be validated without building its channel.
    """

    kind: str
    n: int
    params: tuple[float, ...] = ()
    eve_dim: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UnsupportedCombinationError(f"unknown attack kind {self.kind!r}")
        kind = KINDS[self.kind]
        for key in KIND_FIELDS:  # the class attribute is the field's default
            if getattr(self, key) != getattr(AttackSpec, key):
                check_takes(self.kind, key)
        _checked_seed(self.seed)
        check_cell(self.n, 1)  # the apparatus size is a function of a valid n
        check_cell(self.n, kind.apparatus(self.n, self.eve_dim))
        if len(self.params) != kind.arity:
            raise OutOfRangeError(
                f"{self.kind} takes {kind.arity} parameter(s), got {len(self.params)}"
            )
        if self.kind == "probe_overlap" and self.n != 1:
            raise UnsupportedCombinationError("probe_overlap is defined for n=1")
        try:
            params = tuple(float(p) for p in self.params if isinstance(p, numbers.Real))
        except OverflowError:
            params = ()
        if len(params) != len(self.params) or not all(map(math.isfinite, params)):
            raise OutOfRangeError(f"params {self.params!r} must be finite real numbers")
        object.__setattr__(self, "params", params)


def make_attack(spec: AttackSpec) -> AttackChannel:
    """Construct the channel for a named attack."""
    n, d = spec.n, 1 << spec.n
    if spec.kind == "random_unitary":
        return random_attack(n, spec.eve_dim, spec.seed)
    # Every other kind forwards the string and keeps pointers[i] for input i.
    if spec.kind == "identity":
        pointers = np.ones((d, 1))
    elif spec.kind == "phase_conversion":  # per-qubit value flip |i> -> (-1)**i |i>
        pointers = np.array([[(-1.0) ** bit_parity(i)] for i in range(d)])
    elif spec.kind == "probe_overlap":
        theta = spec.params[0]
        pointers = np.array([[1.0, 0.0], [np.cos(theta), np.sin(theta)]])
    else:  # intercept_resend and cnot_probe: a pointer records the string
        pointers = np.eye(d)
    kraus = np.zeros((d, d, pointers.shape[1]), dtype=complex)
    kraus[np.arange(d), np.arange(d)] = pointers
    return AttackChannel(n=n, eve_dim=pointers.shape[1], kraus=kraus)


def random_attack(n: int, eve_dim: int, seed: int) -> AttackChannel:
    """Seeded Haar-style random attack with a fixed |0> apparatus start.

    The interaction is ``u = random_unitary(eve_dim * 2**n, seed)`` on
    (apparatus x system); with the apparatus at |0> only its first 2**n
    columns act, so only they are drawn (``random_isometry``) and
    ``kraus[i, j, a] = u[a * 2**n + j, i]``.  Bit-identical output for
    identical (n, eve_dim, seed).
    """
    check_cell(n, eve_dim)
    d = 1 << n
    cols = random_isometry(eve_dim * d, d, seed)  # (apparatus, output) x input
    kraus = cols.reshape(eve_dim, d, d).transpose(2, 1, 0)
    return AttackChannel(n=n, eve_dim=eve_dim, kraus=kraus)
