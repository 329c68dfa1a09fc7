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
    InvalidArrayError,
    NotUnitaryError,
    OutOfRangeError,
    ParseError,
    UnsupportedCombinationError,
    ValidationError,
)
from .bounds import BoundsReport, audit_attack
from .channel import AttackChannel, from_unitary
from .linalg import N_MAX, _as_array, _as_integer, _as_reals, check_cell
from .rng import _checked_seed, mix
from .zoo import (
    KINDS,
    MAX_COUNT,
    MAX_GRID_CELLS,
    MAX_POVM_SAMPLES,
    MAX_SWEEP_THETAS,
    AttackSpec,
    check_takes,
    make_attack,
    random_attack,
)

# Report columns: attack_id, then BoundsReport fields of the same names.
CSV_HEADER = (
    "attack_id,n,eve_dim,delta,h_xor,chi_orig,chi_sym,i_lower,"
    "boykin_rhs,corollary_rhs,slack_main,slack_measured,spectrum_deviation"
)
_COLUMNS = CSV_HEADER.split(",")

ANALYSES = ("audit", "sigma_spectrum", "sweep")


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario document.  ``attack``, a named spec or the channel of an
    explicit unitary built once while parsing, holds ``n_qubits`` as ``n``."""

    attack: AttackSpec | AttackChannel
    povm_samples: int
    seed: int
    analyses: tuple[str, ...] = ("audit",)
    sweep_thetas: tuple[float, ...] = tuple(k * math.pi / 12.0 for k in range(7))


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


def _no_constant(name):
    """``parse_constant`` hook: ``NaN``, ``Infinity`` and ``-Infinity``, which
    would pass every later range check, are ParseErrors."""
    raise ParseError(f"non-finite number {name} is not allowed")


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
    """The top-level object of a strict JSON document, else ParseError.

    Float literals are read by ``json``'s own C reader; one that overflows
    a double, such as ``1e999``, reads as ``inf``, and the number rule of
    the field holding it rejects it as a ValidationError naming that field
    (``_as_reals``, ``_complex_array``; integer fields take no float)."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"document is not UTF-8: {exc}") from exc
    try:
        doc = json.loads(
            text, parse_constant=_no_constant, object_pairs_hook=_unique_keys
        )
    # deep nesting recurses; an integer literal of over 4300 digits is a ValueError
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    return doc


def _read_fields(doc, table, prefix="", got=None) -> dict:
    """Read ``doc`` through its field ``table``: a key outside it (it would be
    ignored), then a missing required key, is a ValidationError naming it;
    each present key goes to its reader.  Returns the values, added to ``got``."""
    for key in doc:
        if key not in table:
            raise ValidationError(
                prefix + key, f"unknown field; expected one of {', '.join(table)}"
            )
    got = {} if got is None else got
    for key, (reader, required) in table.items():
        if key in doc:
            got[key] = reader(doc[key], prefix + key, got)
        elif required:
            raise ValidationError(prefix + key, "missing required field")
    return got


_NAMED = (DimensionMismatchError, DimensionTooLargeError, NotUnitaryError,
          OutOfRangeError, UnsupportedCombinationError)


def _named(field, check, *args, **kwargs):
    """``check(*args, **kwargs)``, a library rule, with its validation errors
    reported as ValidationError(field)."""
    try:
        return check(*args, **kwargs)
    except _NAMED as exc:
        raise ValidationError(field, str(exc)) from exc


def _rule(check, *args):
    """Reader of the value ``check(value, *args)`` returns, by a library rule
    such as ``linalg._as_integer``, whose errors name the field."""
    def read(value, field, got=None):
        return _named(field, check, value, *args)
    return read


read_seed = _rule(_checked_seed)  # the stream's seed rule


def _sweep_thetas(value, field, got) -> tuple[float, ...]:
    thetas = _named(field, _as_reals, value, "sweep_thetas")
    if len(thetas) > MAX_SWEEP_THETAS:
        raise ValidationError(field, f"has {len(thetas)} angles, at most {MAX_SWEEP_THETAS}")
    return thetas


def _analyses(value, field, got) -> tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not value:  # a tuple from a ScenarioConfig
        raise ValidationError(field, "must be a nonempty list")
    for a in value:
        if a not in ANALYSES:
            raise ValidationError(field, f"unknown analysis {a!r}")
    return tuple(value)


def _complex_array(value, field, got) -> np.ndarray:
    """Nested lists of [re, im] number pairs as a complex array, else
    ValidationError.  The entries are read by the library's array rule
    (``linalg._as_array``), which refuses strings, booleans and integers
    beyond the double range, and the message carries the reason it found;
    finiteness is ``from_unitary``'s rule, since a literal overflowing a
    double, such as ``1e999``, reads as ``inf``."""
    message = "complex entries must be [re, im] pairs"
    try:
        arr = _as_array(value, float, field)
    except InvalidArrayError as exc:
        raise ValidationError(field, f"{message} of numbers; found {exc.reason}") from exc
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise ValidationError(field, message)
    return arr.view(complex)[..., 0]


def _kind(value, field, got) -> str:
    if not isinstance(value, str):
        raise ValidationError(field, "must be a string")
    return value


def _attack_n(value, field, got) -> int:
    """``attack.n``, which must equal ``n_qubits``, preset in ``got["n"]``."""
    if _named(field, _as_integer, value, "qubit count") != got["n"]:
        raise ValidationError(field, f"disagrees with n_qubits={got['n']}")
    return value


def _kind_field(read):
    """Reader of a ``zoo.KIND_FIELDS`` field, an error on a kind not taking it."""
    def reader(value, field, got):
        _named(field, check_takes, got["kind"], field.rpartition(".")[2])
        return read(value, field)
    return reader


def _attack(value, field, got) -> AttackSpec | AttackChannel:
    """A named attack spec, or the channel of an explicit unitary, built once."""
    if not isinstance(value, dict):
        raise ValidationError(field, "must be an object")
    n_qubits, prefix = got.pop("n_qubits"), field + "."  # kept only as attack.n
    if "unitary" in value:
        arrays = _read_fields(value, EXPLICIT_ATTACK_FIELDS, prefix)
        try:
            return from_unitary(arrays["unitary"], arrays["ancilla"], n_qubits)
        except _NAMED as exc:  # from_unitary's message starts with its array
            array = "ancilla" if str(exc).startswith("ancilla") else "unitary"
            raise ValidationError(prefix + array, str(exc)) from exc
    spec = _read_fields(value, NAMED_ATTACK_FIELDS, prefix, {"n": n_qubits})
    return _named(field, AttackSpec, **spec)


def _grid(value, field, got) -> tuple[tuple[int, int], ...]:
    if not isinstance(value, (list, tuple)):  # a tuple from a CampaignConfig
        raise ValidationError(field, "must be a list of [n, eve_dim] pairs")
    if len(value) > MAX_GRID_CELLS:
        raise ValidationError(field, f"has {len(value)} cells, at most {MAX_GRID_CELLS}")
    for pos, cell in enumerate(value):
        if not isinstance(cell, (list, tuple)) or len(cell) != 2:
            raise ValidationError(f"{field}[{pos}]", "must be an [n, eve_dim] integer pair")
        _named(f"{field}[{pos}]", check_cell, *cell)
    return tuple(map(tuple, value))


def _output(value, field, got) -> str:
    if not isinstance(value, str) or not value:
        raise ValidationError(field, "must be a nonempty path string")
    _campaign_paths(value)
    return value


# Each document object's fields in the order they are read: key -> (reader,
# required).  A reader takes a field's raw value, its name and the fields
# read before it, and returns the checked value or raises
# ValidationError(field).  An absent optional key is not passed on, so its
# default is the one of the dataclass the fields build.
NAMED_ATTACK_FIELDS = {  # AttackSpec; attack.n defaults to n_qubits
    "kind": (_kind, True),
    "n": (_attack_n, False),
    "params": (_rule(_as_reals, "params"), False),
    "eve_dim": (_kind_field(_rule(_as_integer, "eve_dim")), False),
    "seed": (_kind_field(read_seed), False),
}
EXPLICIT_ATTACK_FIELDS = {"unitary": (_complex_array, True),
                          "ancilla": (_complex_array, True)}
SCENARIO_FIELDS = {  # ScenarioConfig; n_qubits goes to the attack reader
    "n_qubits": (_rule(_as_integer, "qubit count", 1, N_MAX), True),
    "attack": (_attack, True),
    "povm_samples": (_rule(_as_integer, "samples", 0, MAX_POVM_SAMPLES), True),
    "seed": (read_seed, True),
    "analyses": (_analyses, False),
    "sweep_thetas": (_sweep_thetas, False),
}
CAMPAIGN_FIELDS = {  # CampaignConfig
    "grid": (_grid, True),
    "count": (_rule(_as_integer, "count", 0, MAX_COUNT), True),
    "master_seed": (read_seed, True),
    "output": (_output, True),
    "povm_samples": (_rule(_as_integer, "samples", 0, MAX_POVM_SAMPLES), False),
}


def parse_scenario(text) -> ScenarioConfig:
    """Parse and validate one scenario document.

    Raises ParseError for malformed JSON and ValidationError naming the
    offending field otherwise.
    """
    return ScenarioConfig(**_read_fields(_load_json(text), SCENARIO_FIELDS))


def parse_campaign(text) -> CampaignConfig:
    """Parse and validate one campaign document."""
    return CampaignConfig(**_read_fields(_load_json(text), CAMPAIGN_FIELDS))


def attack_label(cfg: ScenarioConfig) -> str:
    if isinstance(cfg.attack, AttackChannel):
        return "explicit"
    return KINDS[cfg.attack.kind].label.format_map(vars(cfg.attack))


def check_analyses(cfg: ScenarioConfig, command: str) -> None:
    """ValidationError("analyses") unless the scenario lists the analysis
    ``command`` (``audit`` or ``sweep``) runs; a sweep prints no
    ``sigma_spectrum`` line, so it also rejects that analysis."""
    if command not in cfg.analyses:
        raise ValidationError(
            "analyses", f"{list(cfg.analyses)} does not list {command!r}, which this command runs")
    if command == "sweep" and "sigma_spectrum" in cfg.analyses:
        raise ValidationError("analyses", "sweep does not print sigma_spectrum; audit does")


def run_scenario(cfg: ScenarioConfig) -> BoundsReport:
    """Audit the configured attack, an AttackSpec or an AttackChannel, once
    ``povm_samples``, ``seed`` and ``analyses`` pass their document readers."""
    if not isinstance(cfg.attack, (AttackSpec, AttackChannel)):
        raise ValidationError("attack", "must be an AttackSpec or an AttackChannel")
    samples, seed, _ = (SCENARIO_FIELDS[key][0](getattr(cfg, key), key, None)
                        for key in ("povm_samples", "seed", "analyses"))
    ch = cfg.attack if isinstance(cfg.attack, AttackChannel) else make_attack(cfg.attack)
    return audit_attack(ch, samples, seed)


def run_sweep(cfg: ScenarioConfig) -> list[tuple[str, BoundsReport]]:
    """Audit the one-parameter family of the configured kind at each angle of
    ``sweep_thetas``, read as a document's; one ``(attack_label, report)`` row each."""
    if not isinstance(cfg.attack, AttackSpec) or KINDS[cfg.attack.kind].arity != 1:
        raise ValidationError("attack.kind", "sweep requires a probe_overlap attack")
    rows = []
    for theta in _sweep_thetas(cfg.sweep_thetas, "sweep_thetas", None):
        point = replace(cfg, attack=replace(cfg.attack, params=(theta,)))
        rows.append((attack_label(point), run_scenario(point)))
    return rows


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
    return [attack_id] + [getattr(report, name) for name in _COLUMNS[1:]]


def write_report(rows, fmt: str = "csv") -> bytes:
    """Serialize report rows; ``rows`` is a list of (attack_id, report).

    The CSV header and column order are fixed; reals carry 17 significant
    digits.  The JSON form mirrors the same field names.
    """
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
                for name, v in zip(_COLUMNS, fields)
            })
        return (json.dumps(records, indent=2) + "\n").encode("utf-8")
    raise OutOfRangeError(f"unknown report format {fmt!r}; expected 'csv' or 'json'")


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


def run_campaign(cfg: CampaignConfig) -> CampaignSummary:
    """Audit seeded random attacks over the configured grid.

    Writes per-attack rows to ``cfg.output`` as CSV plus a JSON mirror
    alongside it.  The sub-seed for cell (n, d, k) is
    ``mix(master_seed, n, d, k)``, so output does not depend on execution
    order; reruns are byte-identical.  ``cfg`` is read through the
    document's field table, ``CAMPAIGN_FIELDS``, before any attack is
    drawn or any file is written, so a Python campaign obeys the rules and
    work limits of a document and breaks them with a ValidationError
    naming the field.
    """
    cfg = CampaignConfig(**_read_fields(vars(cfg), CAMPAIGN_FIELDS))
    csv_path, json_path = _campaign_paths(cfg.output)
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
