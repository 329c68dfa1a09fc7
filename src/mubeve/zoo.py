"""Canonical and random attack constructors used by tests and campaigns."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionTooLargeError,
    OutOfRangeError,
    UnsupportedCombinationError,
)
from .channel import AttackChannel
from .linalg import N_MAX, _as_integer, bit_parity
from .rng import random_isometry

# Named attacks: kind -> (parameter count, one-line note for ``mubeve zoo``).
KINDS = {
    "identity": (0, "no interaction; zero disturbance and zero information"),
    "phase_conversion": (0, "per-qubit value flip; deterministic error, no gain"),
    "intercept_resend": (0, "measure in basis b and resend; pointer per string"),
    "cnot_probe": (0, "per-qubit copy into fresh ancilla qubits"),
    "probe_overlap": (1, "n=1 probe pair with overlap cos(theta); params: [theta]"),
    "random_unitary": (0, "seeded Haar-style interaction; fields: eve_dim, seed"),
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
    _as_integer(n, "qubit count")
    _as_integer(eve_dim, "eve_dim")
    if not 1 <= n <= N_MAX:
        raise OutOfRangeError(f"qubit count {n} outside [1, {N_MAX}]")
    if eve_dim < 1:
        raise OutOfRangeError(f"eve_dim {eve_dim} must be at least 1")
    total = eve_dim * (1 << n)
    if total > MAX_TOTAL_DIM:
        raise DimensionTooLargeError(
            f"total dimension {total} exceeds {MAX_TOTAL_DIM}"
        )


@dataclass(frozen=True)
class AttackSpec:
    """Named attack with its parameters.

    ``params`` carries the probe angle for ``probe_overlap``; ``eve_dim``
    and ``seed`` belong to ``random_unitary`` alone, so only there does
    ``check_cell`` see ``eve_dim``, and every other kind rejects values
    other than the defaults.  Construction rejects every spec that
    ``make_attack`` could not build or would ignore a field of, so a spec
    can be validated without building its channel.
    """

    kind: str
    n: int
    params: tuple[float, ...] = ()
    eve_dim: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UnsupportedCombinationError(f"unknown attack kind {self.kind!r}")
        if self.kind != "random_unitary" and (self.eve_dim, self.seed) != (1, 0):
            raise UnsupportedCombinationError(
                f"{self.kind} takes no eve_dim or seed, only random_unitary does"
            )
        check_cell(self.n, self.eve_dim)
        arity = KINDS[self.kind][0]
        if len(self.params) != arity:
            raise OutOfRangeError(
                f"{self.kind} takes {arity} parameter(s), got {len(self.params)}"
            )
        if self.kind == "probe_overlap" and self.n != 1:
            raise UnsupportedCombinationError("probe_overlap is defined for n=1")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))


def _diagonal_channel(n: int, eve_dim: int, pointer) -> AttackChannel:
    """Channel that forwards the string unchanged; ``pointer(i)`` gives the
    apparatus vector kept for input i."""
    d = 1 << n
    kraus = np.zeros((d, d, eve_dim), dtype=complex)
    for i in range(d):
        kraus[i, i] = pointer(i)
    return AttackChannel(n=n, eve_dim=eve_dim, kraus=kraus)


def make_attack(spec: AttackSpec) -> AttackChannel:
    """Construct the channel for a named attack."""
    n = spec.n
    d = 1 << n
    if spec.kind == "identity":
        return _diagonal_channel(n, 1, lambda i: np.array([1.0 + 0.0j]))
    if spec.kind == "phase_conversion":
        # Per-qubit value flip |i> -> (-1)**i |i>; no apparatus is kept.
        return _diagonal_channel(
            n, 1, lambda i: np.array([(-1.0) ** bit_parity(i) + 0.0j])
        )
    if spec.kind in ("intercept_resend", "cnot_probe"):
        # Measure-and-resend in basis b and the per-qubit copy probe leave
        # the same table: the string is forwarded and a pointer records it.
        def pointer(i):
            v = np.zeros(d, dtype=complex)
            v[i] = 1.0
            return v

        return _diagonal_channel(n, d, pointer)
    if spec.kind == "probe_overlap":
        theta = spec.params[0]
        vectors = {
            0: np.array([1.0, 0.0], dtype=complex),
            1: np.array([np.cos(theta), np.sin(theta)], dtype=complex),
        }
        return _diagonal_channel(1, 2, lambda i: vectors[i])
    if spec.kind == "random_unitary":
        return random_attack(n, spec.eve_dim, spec.seed)
    raise UnsupportedCombinationError(f"unknown attack kind {spec.kind!r}")


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
