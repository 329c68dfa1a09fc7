"""Scenario and campaign runners with machine-readable reports.

Configurations are JSON documents; complex numbers are two-element
[re, im] arrays.  Report rows serialize to a CSV with a fixed header and
to a JSON mirror carrying the same field names.  All outputs are
byte-deterministic for identical configuration bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    NotUnitaryError,
    OutOfRangeError,
    ParseError,
    UnsupportedCombinationError,
    ValidationError,
)
from .bounds import BoundsReport, audit_attack
from .channel import AttackChannel, from_unitary
from .linalg import N_MAX
from .rng import MASK64, mix
from .zoo import AttackSpec, check_total_dim, make_attack, random_attack

CSV_HEADER = (
    "attack_id,n,eve_dim,delta,h_xor,chi_orig,chi_sym,i_lower,"
    "boykin_rhs,corollary_rhs,slack_main,slack_measured,spectrum_deviation"
)

ANALYSES = ("audit", "sigma_spectrum", "sweep")

DEFAULT_SWEEP_THETAS = tuple(k * math.pi / 12.0 for k in range(7))


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario document.  ``attack`` is a named spec, or the channel
    of an explicit unitary, built once while parsing."""

    n_qubits: int
    attack: AttackSpec | AttackChannel
    povm_samples: int
    seed: int
    analyses: tuple[str, ...]
    sweep_thetas: tuple[float, ...] | None = None


@dataclass(frozen=True)
class CampaignConfig:
    grid: tuple[tuple[int, int], ...]
    count: int
    master_seed: int
    output: str
    povm_samples: int = 16


@dataclass(frozen=True)
class CampaignSummary:
    rows: int
    min_slack_main: float
    min_slack_measured: float
    max_spectrum_deviation: float
    worst_attack_id: str | None
    worst_seed: int | None


def _finite_float(text):
    """Parse a JSON number; NaN, Infinity and overflowing literals like
    1e999 would pass every later range check, so they are rejected here."""
    value = float(text)
    if not math.isfinite(value):
        raise ParseError(f"non-finite number {text} is not allowed")
    return value


def _unique_keys(pairs) -> dict:
    """A JSON object, or ParseError when a key repeats; ``json`` would keep
    the last value silently."""
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ParseError(f"duplicate key {key!r}")
        seen.add(key)
    return dict(pairs)


def _load_json(text) -> dict:
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"document is not UTF-8: {exc}") from exc
    try:
        doc = json.loads(
            text, parse_constant=_finite_float, parse_float=_finite_float,
            object_pairs_hook=_unique_keys,
        )
    except (json.JSONDecodeError, RecursionError) as exc:  # deep nesting recurses
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    return doc


def _int_field(doc, key, minimum=None, maximum=None, default=None, prefix="") -> int:
    """Integer ``doc[key]``, or ``default`` when the key is absent and a
    default is given.  Errors name the field as ``prefix + key``."""
    field = prefix + key
    if key not in doc:
        if default is None:
            raise ValidationError(field, "missing required field")
        return default
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(field, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(field, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValidationError(field, f"must be <= {maximum}, got {value}")
    return value


def _float_list(raw, field) -> tuple[float, ...]:
    if not isinstance(raw, list) or not all(
        isinstance(t, (int, float)) and not isinstance(t, bool) for t in raw
    ):
        raise ValidationError(field, "must be a list of numbers")
    try:
        return tuple(float(t) for t in raw)
    except OverflowError as exc:
        raise ValidationError(field, str(exc)) from exc


def _complex_array(raw, field) -> np.ndarray:
    """Nested lists of [re, im] number pairs as a complex array, else
    ValidationError.  ``numpy`` would also convert strings such as "1" and
    booleans, so the parsed entries must be JSON numbers."""
    message = "complex entries must be [re, im] pairs"
    try:
        entries = np.asarray(raw, dtype=object)
        arr = entries.astype(float)  # ragged or non-numeric entries fail here
    except (ValueError, TypeError, OverflowError) as exc:
        raise ValidationError(field, f"{message}: {exc}") from exc
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise ValidationError(field, message)
    if not set(map(type, entries.ravel())) <= {int, float}:
        raise ValidationError(field, f"{message} of numbers, not strings or booleans")
    return arr[..., 0] + 1j * arr[..., 1]


def _parse_attack(doc, n_qubits) -> AttackSpec | AttackChannel:
    raw = doc.get("attack")
    if not isinstance(raw, dict):
        raise ValidationError("attack", "must be an object")

    if "unitary" in raw:
        unitary = _complex_array(raw["unitary"], "attack.unitary")
        if "ancilla" not in raw:
            raise ValidationError("attack.ancilla", "missing required field")
        ancilla = _complex_array(raw["ancilla"], "attack.ancilla")
        try:
            if unitary.ndim == 2:  # from_unitary rejects every other shape
                check_total_dim(n_qubits, unitary.shape[0] >> n_qubits)
            return from_unitary(unitary, ancilla, n_qubits)
        except (NotUnitaryError, DimensionMismatchError, OutOfRangeError,
                DimensionTooLargeError) as exc:
            raise ValidationError("attack.unitary", str(exc)) from exc

    kind = raw.get("kind")
    if not isinstance(kind, str):
        raise ValidationError("attack.kind", "missing or not a string")
    n = _int_field(raw, "n", default=n_qubits, prefix="attack.")
    if n != n_qubits:
        raise ValidationError("attack.n", f"disagrees with n_qubits={n_qubits}")
    params = _float_list(raw.get("params", []), "attack.params")
    eve_dim = _int_field(raw, "eve_dim", default=1, prefix="attack.")
    seed = _int_field(raw, "seed", minimum=0, maximum=MASK64, default=0,
                      prefix="attack.")
    try:
        return AttackSpec(kind=kind, n=n, params=params, eve_dim=eve_dim, seed=seed)
    except (UnsupportedCombinationError, OutOfRangeError,
            DimensionTooLargeError) as exc:
        raise ValidationError("attack", str(exc)) from exc


def parse_scenario(text) -> ScenarioConfig:
    """Parse and validate one scenario document.

    Raises ParseError for malformed JSON and ValidationError naming the
    offending field otherwise.
    """
    doc = _load_json(text)
    n_qubits = _int_field(doc, "n_qubits", minimum=1, maximum=N_MAX)
    attack = _parse_attack(doc, n_qubits)
    povm_samples = _int_field(doc, "povm_samples", minimum=0)
    seed = _int_field(doc, "seed", minimum=0, maximum=MASK64)

    analyses = doc.get("analyses", ["audit"])
    if not isinstance(analyses, list) or not analyses:
        raise ValidationError("analyses", "must be a nonempty list")
    for a in analyses:
        if a not in ANALYSES:
            raise ValidationError("analyses", f"unknown analysis {a!r}")

    sweep_thetas = None
    if "sweep_thetas" in doc:
        sweep_thetas = _float_list(doc["sweep_thetas"], "sweep_thetas")

    return ScenarioConfig(
        n_qubits=n_qubits,
        attack=attack,
        povm_samples=povm_samples,
        seed=seed,
        analyses=tuple(analyses),
        sweep_thetas=sweep_thetas,
    )


def parse_campaign(text) -> CampaignConfig:
    """Parse and validate one campaign document."""
    doc = _load_json(text)
    raw_grid = doc.get("grid")
    if not isinstance(raw_grid, list):
        raise ValidationError("grid", "must be a list of [n, eve_dim] pairs")
    grid = []
    for pos, cell in enumerate(raw_grid):
        field = f"grid[{pos}]"
        if (
            not isinstance(cell, list) or len(cell) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in cell)
        ):
            raise ValidationError(field, "must be an [n, eve_dim] integer pair")
        n, eve_dim = cell
        if not 1 <= n <= N_MAX:
            raise ValidationError(field, f"n={n} outside [1, {N_MAX}]")
        try:
            check_total_dim(n, eve_dim)
        except (OutOfRangeError, DimensionTooLargeError) as exc:
            raise ValidationError(field, str(exc)) from exc
        grid.append((n, eve_dim))
    count = _int_field(doc, "count", minimum=0)
    master_seed = _int_field(doc, "master_seed", minimum=0, maximum=MASK64)
    output = doc.get("output")
    if not isinstance(output, str) or not output:
        raise ValidationError("output", "must be a nonempty path string")
    _campaign_paths(output)
    povm_samples = _int_field(doc, "povm_samples", minimum=0, default=16)
    return CampaignConfig(
        grid=tuple(grid),
        count=count,
        master_seed=master_seed,
        output=output,
        povm_samples=povm_samples,
    )


def build_attack(cfg: ScenarioConfig) -> AttackChannel:
    if isinstance(cfg.attack, AttackChannel):
        return cfg.attack
    return make_attack(cfg.attack)


def attack_label(cfg: ScenarioConfig) -> str:
    if isinstance(cfg.attack, AttackChannel):
        return "explicit"
    spec = cfg.attack
    if spec.kind == "probe_overlap":
        return f"probe_overlap[theta={spec.params[0]:.17g}]"
    if spec.kind == "random_unitary":
        return f"random_unitary[n={spec.n};d={spec.eve_dim};seed={spec.seed}]"
    return spec.kind


def run_scenario(cfg: ScenarioConfig) -> BoundsReport:
    """Audit the configured attack."""
    return audit_attack(build_attack(cfg), cfg.povm_samples, cfg.seed)


def run_sweep(cfg: ScenarioConfig) -> list[tuple[float, BoundsReport]]:
    """Audit the probe-overlap family across a grid of angles."""
    if not isinstance(cfg.attack, AttackSpec) or cfg.attack.kind != "probe_overlap":
        raise ValidationError("attack.kind", "sweep requires a probe_overlap attack")
    thetas = cfg.sweep_thetas if cfg.sweep_thetas is not None else DEFAULT_SWEEP_THETAS
    results = []
    for theta in thetas:
        spec = replace(cfg.attack, params=(theta,))
        report = audit_attack(make_attack(spec), cfg.povm_samples, cfg.seed)
        results.append((theta, report))
    return results


def sigma_spectrum_detail(report: BoundsReport) -> dict:
    """Fourier eigenvalues next to the error distribution, for inspection."""
    return {
        "lambda": [float(v) for v in report.fourier_eigenvalues],
        "error_probs": [float(v) for v in report.error_dist.probs],
        "max_deviation": float(report.spectrum_deviation),
    }


def _fmt(x: float) -> str:
    return format(float(x) + 0.0, ".17g")  # +0.0 folds -0.0 into 0


def _row_fields(attack_id: str, report: BoundsReport) -> list:
    return [
        attack_id,
        report.n,
        report.eve_dim,
        report.delta,
        report.h_xor,
        report.chi_orig,
        report.chi_sym,
        report.i_lower,
        report.boykin_rhs,
        report.corollary_rhs,
        report.slack_main,
        report.slack_measured,
        report.spectrum_deviation,
    ]


def write_report(rows, fmt: str = "csv") -> bytes:
    """Serialize report rows; ``rows`` is a list of (attack_id, report).

    The CSV header and column order are fixed; reals carry 17 significant
    digits.  The JSON form mirrors the same field names.
    """
    names = CSV_HEADER.split(",")
    if fmt == "csv":
        lines = [CSV_HEADER]
        for attack_id, report in rows:
            fields = _row_fields(attack_id, report)
            lines.append(",".join(
                str(v) if isinstance(v, (str, int)) else _fmt(v) for v in fields
            ))
        return ("\n".join(lines) + "\n").encode("utf-8")
    if fmt == "json":
        records = []
        for attack_id, report in rows:
            fields = _row_fields(attack_id, report)
            records.append({
                name: (v if isinstance(v, (str, int)) else float(v))
                for name, v in zip(names, fields)
            })
        return (json.dumps(records, indent=2) + "\n").encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}")


def checked_path(path: str, field: str) -> Path:
    """``path`` as a Path, or ValidationError(field) when it holds a NUL
    character, which no file system accepts."""
    if "\0" in path:
        raise ValidationError(field, f"{path!r} contains a NUL character")
    return Path(path)


def _campaign_paths(output: str) -> tuple[Path, Path]:
    """The CSV path of a campaign and its JSON mirror, ``output`` with the
    suffix replaced by ``.json``.  Raises ValidationError("output") when
    the two coincide (``output`` already ends in ``.json``), since the
    mirror would overwrite the rows, or when ``output`` has no file name
    or holds a NUL character."""
    csv = checked_path(output, "output")
    try:
        mirror = csv.with_suffix(".json")
    except ValueError as exc:
        raise ValidationError("output", f"{output!r} has no file name") from exc
    if mirror == csv:
        raise ValidationError(
            "output", f"{output!r} is also the path of the JSON mirror"
        )
    return csv, mirror


def run_campaign(cfg: CampaignConfig, output_path: str | None = None) -> CampaignSummary:
    """Audit seeded random attacks over the configured grid.

    Writes per-attack rows to the output path as CSV plus a JSON mirror
    alongside it.  The sub-seed for cell (n, d, k) is
    ``mix(master_seed, n, d, k)``, so output does not depend on execution
    order; reruns are byte-identical.  An output path that would collide
    with its mirror (see ``_campaign_paths``) is rejected before any audit.
    """
    csv_path, json_path = _campaign_paths(
        output_path if output_path is not None else cfg.output
    )
    rows: list[tuple[str, BoundsReport]] = []
    seeds: list[int] = []
    for n, eve_dim in cfg.grid:
        for k in range(cfg.count):
            sub = mix(cfg.master_seed, n, eve_dim, k)
            ch = random_attack(n, eve_dim, sub)
            report = audit_attack(ch, cfg.povm_samples, mix(sub, 1))
            rows.append((f"n{n}_d{eve_dim}_k{k}", report))
            seeds.append(sub)

    csv_path.write_bytes(write_report(rows, "csv"))
    json_path.write_bytes(write_report(rows, "json"))

    if not rows:
        return CampaignSummary(0, 0.0, 0.0, 0.0, None, None)
    worst = min(range(len(rows)), key=lambda i: rows[i][1].slack_main)
    return CampaignSummary(
        rows=len(rows),
        min_slack_main=min(r.slack_main for _, r in rows),
        min_slack_measured=min(r.slack_measured for _, r in rows),
        max_spectrum_deviation=max(r.spectrum_deviation for _, r in rows),
        worst_attack_id=rows[worst][0],
        worst_seed=seeds[worst],
    )
