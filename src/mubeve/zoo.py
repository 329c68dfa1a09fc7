"""Canonical and random attack constructors used by tests and campaigns."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import OutOfRangeError, UnsupportedCombinationError
from .channel import AttackChannel, _from_columns
from .linalg import N_MAX, _as_integer, _as_reals, check_cell, sign_grid
from .rng import _checked_seed, random_isometry


class Kind(NamedTuple):
    arity: int              # number of params
    # (n, params) -> the table whose row i is the pointer kept for input i,
    # or None for a kind whose interaction is drawn, which reads KIND_FIELDS
    pointers: Callable[[int, tuple[float, ...]], np.ndarray] | None
    label: str              # attack_id, a format string over the AttackSpec fields
    note: str               # one line for ``mubeve zoo``


# Optional fields of ``AttackSpec`` read only by the drawn kinds.
KIND_FIELDS = ("eve_dim", "seed")

KINDS = {
    "identity": Kind(0, lambda n, p: np.ones((1 << n, 1)), "identity",
                     "no interaction; zero disturbance and zero information"),
    # per-qubit value flip |i> -> (-1)**|i| |i>, the last column of sign_grid
    "phase_conversion": Kind(0, lambda n, p: sign_grid(n)[:, -1:], "phase_conversion",
                             "per-qubit value flip; deterministic error, no gain"),
    "intercept_resend": Kind(0, lambda n, p: np.eye(1 << n), "intercept_resend",
                             "measure in basis b and resend; pointer per string"),
    "cnot_probe": Kind(0, lambda n, p: np.eye(1 << n), "cnot_probe",
                       "per-qubit copy into fresh ancilla qubits; "
                       "same Kraus table as intercept_resend"),
    "probe_overlap": Kind(
        1, lambda n, p: np.array([[1.0, 0.0], [np.cos(p[0]), np.sin(p[0])]]),
        "probe_overlap[theta={params[0]:.17g}]",
        "n=1 probe pair with overlap cos(theta); params: [theta]"),
    "random_unitary": Kind(
        0, None, "random_unitary[n={n};d={eve_dim};seed={seed}]",
        "seeded Haar-style interaction; fields: eve_dim, seed"),
}

# Work limits of every document and campaign (run_campaign reads a
# CampaignConfig through the document's table).  The measured search
# draws its bases on the support of the Kraus vectors, min(eve_dim, 4**n)
# wide, so its costliest cell is (3, 64): with 1,024 bases an audit takes
# about 0.6 s there, 0.18 s at (4, 32), 35 ms at (2, 128) and 4-6 ms at
# (1, 256) (medians of 3, 2-core x86 VM, one BLAS thread).  The cells at
# n = 5 to 9 are at most 16 wide: with 1,024 bases an audit takes 0.12 s at
# (5, 16) and 0.17 s at (9, 1), whose build adds 0.1 s.  The work budget of
# the largest campaign, 64 cells x 1,024 attacks x 1,024 bases, is about
# 11 hours at (3, 64) and 5 minutes at (1, 256).
MAX_POVM_SAMPLES = 1024
MAX_COUNT = 1024         # attacks per campaign cell
MAX_GRID_CELLS = 64
MAX_SWEEP_THETAS = 1024


def check_takes(kind: str, key: str) -> None:
    """UnsupportedCombinationError when a known ``kind`` is not drawn, so takes
    no ``KIND_FIELDS`` field ``key``; an unknown kind is left to the kind check."""
    if kind in KINDS and KINDS[kind].pointers is not None:
        takers = " or ".join(k for k, entry in KINDS.items() if entry.pointers is None)
        raise UnsupportedCombinationError(f"only {takers} takes {key}, not {kind!r}")


@dataclass(frozen=True)
class AttackSpec:
    """Named attack with its parameters.

    ``params`` carries the probe angle for ``probe_overlap``; ``eve_dim``
    and ``seed`` belong to the drawn kinds (no ``pointers``), and every
    other kind rejects values other than the defaults.  The cell is
    checked at the width of the pointer table a kind keeps, which
    ``make_attack`` reuses, or at ``eve_dim`` for a drawn kind.  Construction
    rejects every spec that ``make_attack`` could not build or would ignore
    a field of, so a spec can be validated without building its channel.
    """

    kind: str
    n: int
    params: tuple[float, ...] = ()
    eve_dim: int = 1
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in KINDS:
            raise UnsupportedCombinationError(f"unknown attack kind {self.kind!r}")
        kind = KINDS[self.kind]
        for key in KIND_FIELDS:  # the class attribute is the field's default
            if getattr(self, key) != getattr(AttackSpec, key):
                check_takes(self.kind, key)
        _checked_seed(self.seed)
        _as_integer(self.n, "qubit count", 1, N_MAX)  # caps a pointer table at 2**N_MAX rows
        _as_integer(self.eve_dim, "eve_dim", 1)  # an integer even where unread
        params = _as_reals(self.params, "params")
        if len(params) != kind.arity:
            raise OutOfRangeError(
                f"{self.kind} takes {kind.arity} parameter(s), got {len(params)}"
            )
        object.__setattr__(self, "params", params)
        width = self.eve_dim  # the apparatus of a drawn kind
        if kind.pointers is not None:  # kept for make_attack; not a field
            object.__setattr__(self, "_pointers", kind.pointers(self.n, params))
            rows, width = self._pointers.shape
            if rows != 1 << self.n:
                raise UnsupportedCombinationError(
                    f"{self.kind} is defined for n={rows.bit_length() - 1}")
        check_cell(self.n, width)


def make_attack(spec: AttackSpec) -> AttackChannel:
    """Construct the channel for a named attack: drawn, or with the
    string forwarded and the kind's pointer row i kept for input i."""
    if KINDS[spec.kind].pointers is None:  # the spec has checked its cell
        return _drawn(spec.n, spec.eve_dim, spec.seed)
    table = spec._pointers  # the table the spec checked
    d, eve_dim = table.shape
    kraus = np.zeros((d, d, eve_dim), dtype=complex)
    kraus[np.arange(d), np.arange(d)] = table
    return AttackChannel(n=spec.n, eve_dim=eve_dim, kraus=kraus)


def random_attack(n: int, eve_dim: int, seed: int) -> AttackChannel:
    """Seeded Haar-style random attack with a fixed |0> apparatus start.

    The interaction is ``u = random_unitary(eve_dim * 2**n, seed)`` on
    (apparatus x system); with the apparatus at |0> only its first 2**n
    columns act, so only they are drawn (``random_isometry``) and go to
    ``channel._from_columns``, the table step of ``from_unitary``.
    Bit-identical output for identical (n, eve_dim, seed).
    """
    check_cell(n, eve_dim)
    return _drawn(n, eve_dim, seed)


def _drawn(n: int, eve_dim: int, seed: int) -> AttackChannel:
    """``random_attack`` of a checked cell."""
    return _from_columns(random_isometry(eve_dim << n, 1 << n, seed), n)
