"""Canonical and random attack constructors used by tests and campaigns."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionTooLargeError,
    OutOfRangeError,
    UnsupportedCombinationError,
)
from .channel import AttackChannel, Basis, from_unitary
from .linalg import N_MAX, bit_parity
from .rng import random_unitary

KINDS = (
    "identity",
    "phase_conversion",
    "intercept_resend",
    "cnot_probe",
    "probe_overlap",
    "random_unitary",
)

_PARAM_ARITY = {
    "identity": 0,
    "phase_conversion": 0,
    "intercept_resend": 0,
    "cnot_probe": 0,
    "probe_overlap": 1,
    "random_unitary": 0,
}

MAX_TOTAL_DIM = 512


def check_total_dim(n: int, eve_dim: int) -> None:
    """Reject an apparatus dimension below 1, or an (apparatus x system)
    dimension ``eve_dim * 2**n`` above MAX_TOTAL_DIM."""
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
    and ``seed`` are only meaningful for ``random_unitary``.  Construction
    rejects every spec that ``make_attack`` could not build, so a spec can
    be validated without building its channel.
    """

    kind: str
    n: int
    params: tuple[float, ...] = ()
    eve_dim: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UnsupportedCombinationError(f"unknown attack kind {self.kind!r}")
        if not 1 <= self.n <= N_MAX:
            raise OutOfRangeError(f"qubit count {self.n} outside [1, {N_MAX}]")
        arity = _PARAM_ARITY[self.kind]
        if len(self.params) != arity:
            raise OutOfRangeError(
                f"{self.kind} takes {arity} parameter(s), got {len(self.params)}"
            )
        if self.kind == "probe_overlap" and self.n != 1:
            raise UnsupportedCombinationError("probe_overlap is defined for n=1")
        if self.kind == "random_unitary":
            check_total_dim(self.n, self.eve_dim)
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))


def _diagonal_channel(n: int, eve_dim: int, pointer) -> AttackChannel:
    """Channel that forwards the string unchanged; ``pointer(i)`` gives the
    apparatus vector kept for input i."""
    d = 1 << n
    kraus = np.zeros((d, d, eve_dim), dtype=complex)
    for i in range(d):
        kraus[i, i] = pointer(i)
    return AttackChannel(n=n, eve_dim=eve_dim, kraus=kraus, basis_label=Basis.B)


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

    Bit-identical output for identical (n, eve_dim, seed).
    """
    if not 1 <= n <= N_MAX:
        raise DimensionTooLargeError(f"qubit count {n} outside [1, {N_MAX}]")
    check_total_dim(n, eve_dim)
    u = random_unitary(eve_dim * (1 << n), seed)
    ancilla = np.zeros(eve_dim, dtype=complex)
    ancilla[0] = 1.0
    return from_unitary(u, ancilla, n)
