"""The benchmark's workloads: seeded inputs, one round of CLI commands, and
the check each command's output must pass.

Every operation is one in-process ``mubeve.cli.main(argv)`` call on a
document generated here from the workload seed.  A round is a fixed list
of operations; a run repeats whole rounds, so every run attempts the same
mix.  The reference values a check needs are computed the first time the
operation's output is checked; later reruns must repeat that output byte
for byte.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

AUDIT_SYM_CELL = (3, 2)       # n, eve_dim
AUDIT_SYM_SAMPLES = 16
AUDIT_PROBE_CELL = (1, 8)
AUDIT_PROBE_SAMPLES = 64
AUDITS_PER_ROUND = 12


@dataclass
class Op:
    """One CLI command, what a correct run of it looks like, and how to check it."""

    label: str
    argv: list[str]
    rows: int                                   # report rows it produces
    check: Callable[[str, str], list[str]]      # (stdout, stderr) -> problems
    expect_rc: int = 0
    files: tuple[Path, ...] = ()                # outputs written besides stdout
    may_fail: bool = False                      # known program fault, see README


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**62, size=count)]


class _Docs:
    """Writes generated input documents into the run's work directory."""

    def __init__(self, workdir: Path):
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, doc) -> str:
        path = self.dir / name
        text = doc if isinstance(doc, str) else json.dumps(doc)
        path.write_text(text)
        return str(path)


def _pairs(m: np.ndarray) -> list:
    """Complex array as nested [re, im] pairs, the documents' convention."""
    return np.stack([m.real, m.imag], axis=-1).tolist()


# --------------------------------------------------------------------------
# Checks.

def _report_check(fmt: str, expected: Callable[[], list[ref.Expected]],
                  sigma: bool = False, mirror: dict | None = None):
    """Check a report on stdout; ``mirror`` collects rows so that the CSV
    and JSON forms of one document can be compared."""

    def check(out: str, err: str) -> list[str]:
        exps = expected()
        bad, rows = ref.check_report(out, fmt, exps)
        if sigma and not bad:
            bad += ref.check_sigma_line(err, exps[0], rows[0])
        if mirror is not None:
            mirror[fmt] = rows
            if len(mirror) == 2 and mirror["csv"] != mirror["json"]:
                bad.append(f"{exps[0].attack_id}: CSV and JSON reports disagree")
        return bad

    return check


def _error_check(out: str, err: str) -> list[str]:
    bad = []
    if out:
        bad.append("rejected document printed a report")
    if not any(line.startswith("error: ") for line in err.splitlines()):
        bad.append("rejected document printed no 'error:' line")
    return bad


# --------------------------------------------------------------------------
# Workloads.

def _audit_cell(seed: int, workdir: Path, cell, samples: int) -> list[Op]:
    """``mubeve audit`` of seeded random attacks, all in one (n, eve_dim) cell.

    The audits go through the CLI like every other command, so the cli and
    harness spans are measured on every workload; they cost under 2% here.
    """
    n, eve_dim = cell
    rng = np.random.default_rng(seed)
    docs = _Docs(workdir)
    ops = []
    for k, (attack_seed, povm_seed) in enumerate(
        zip(_seeds(rng, AUDITS_PER_ROUND), _seeds(rng, AUDITS_PER_ROUND))
    ):
        path = docs.write(f"attack{k}.json", {
            "n_qubits": n,
            "attack": {"kind": "random_unitary", "eve_dim": eve_dim, "seed": attack_seed},
            "povm_samples": samples,
            "seed": povm_seed,
            "analyses": ["audit"],
        })
        expected = functools.cache(lambda a=attack_seed, s=povm_seed: [ref.Expected(
            f"random_unitary[n={n};d={eve_dim};seed={a}]", n,
            ref.kraus_random(n, eve_dim, a), samples, s,
        )])
        ops.append(Op(f"audit{k}", ["audit", path], 1, _report_check("csv", expected)))
    return ops


def audit_sym(seed: int, workdir: Path) -> list[Op]:
    return _audit_cell(seed, workdir, AUDIT_SYM_CELL, AUDIT_SYM_SAMPLES)


def audit_probe(seed: int, workdir: Path) -> list[Op]:
    return _audit_cell(seed, workdir, AUDIT_PROBE_CELL, AUDIT_PROBE_SAMPLES)


CLI_SAMPLES = 24
SWEEP_POINTS = 5
CAMPAIGN_GRID = ((1, 1), (1, 2), (2, 1), (2, 2))
CAMPAIGN_SAMPLES = 4


def cli_small(seed: int, workdir: Path) -> list[Op]:
    """A fixed cycle of small ``audit``, ``sweep`` and ``campaign`` commands,
    plus documents the parser must reject."""
    rng = np.random.default_rng(seed)
    docs = _Docs(workdir)
    ops = []
    povm_seeds = iter(_seeds(rng, 16))

    def audit_pair(tag, n, attack, kraus, exact, analyses):
        samples, s = CLI_SAMPLES, next(povm_seeds)
        path = docs.write(f"{tag}.json", {
            "n_qubits": n, "attack": attack, "povm_samples": samples,
            "seed": s, "analyses": analyses,
        })
        label = attack.get("kind", "explicit")
        if label == "probe_overlap":
            label = f"probe_overlap[theta={attack['params'][0]:.17g}]"
        if label == "random_unitary":
            label = f"random_unitary[n={n};d={attack['eve_dim']};seed={attack['seed']}]"
        expected = functools.cache(lambda: [ref.Expected(label, n, kraus(), samples, s, exact)])
        sigma = "sigma_spectrum" in analyses
        mirror: dict = {}
        for fmt in ("csv", "json"):
            ops.append(Op(f"audit:{tag}:{fmt}", ["audit", path, "--format", fmt], 1,
                          _report_check(fmt, expected, sigma, mirror)))

    audit_pair("identity", 2, {"kind": "identity"},
               lambda: ref.kraus_identity(2), ref.closed_form("identity", 2), ["audit"])
    audit_pair("phase_conversion", 2, {"kind": "phase_conversion"},
               lambda: ref.kraus_phase_conversion(2),
               ref.closed_form("phase_conversion", 2), ["audit", "sigma_spectrum"])
    audit_pair("intercept_resend", 2, {"kind": "intercept_resend"},
               lambda: ref.kraus_pointer(2), ref.closed_form("intercept_resend", 2), ["audit"])
    audit_pair("cnot_probe", 1, {"kind": "cnot_probe"},
               lambda: ref.kraus_pointer(1), ref.closed_form("cnot_probe", 1),
               ["audit", "sigma_spectrum"])
    theta = float(rng.uniform(0.2, 1.4))
    audit_pair("probe_overlap", 1, {"kind": "probe_overlap", "params": [theta]},
               lambda: ref.kraus_probe_overlap(theta),
               ref.closed_form("probe_overlap", 1, theta), ["audit"])
    attack_seed = _seeds(rng, 1)[0]
    audit_pair("random_unitary", 2,
               {"kind": "random_unitary", "eve_dim": 2, "seed": attack_seed},
               lambda: ref.kraus_random(2, 2, attack_seed), None,
               ["audit", "sigma_spectrum"])
    u = ref.orthonormal_columns(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    ancilla = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    audit_pair("explicit", 1, {"unitary": _pairs(u), "ancilla": _pairs(ancilla)},
               lambda: ref.kraus_from_unitary(u, ancilla, 1), None, ["audit"])

    # sweep of the probe-overlap family
    thetas = sorted(float(t) for t in rng.uniform(0.0, math.pi / 2, size=SWEEP_POINTS))
    sweep_seed = next(povm_seeds)
    path = docs.write("sweep.json", {
        "n_qubits": 1, "attack": {"kind": "probe_overlap", "params": [0.0]},
        "povm_samples": CLI_SAMPLES, "seed": sweep_seed, "analyses": ["sweep"],
        "sweep_thetas": thetas,
    })
    sweep_expected = functools.cache(lambda: [
        ref.Expected(f"probe_overlap[theta={t:.17g}]", 1, ref.kraus_probe_overlap(t),
                     CLI_SAMPLES, sweep_seed, ref.closed_form("probe_overlap", 1, t))
        for t in thetas
    ])
    ops.append(Op("sweep", ["sweep", path], SWEEP_POINTS,
                  _report_check("csv", sweep_expected)))

    # campaign of tiny cells; rows go to a file, the summary to stdout
    master = _seeds(rng, 1)[0]
    path = docs.write("campaign.json", {
        "grid": [list(c) for c in CAMPAIGN_GRID], "count": 1, "master_seed": master,
        "output": "unused.csv", "povm_samples": CAMPAIGN_SAMPLES,
    })
    out_csv = docs.dir / "campaign_out.csv"
    subs = [ref.mix(master, n, d, 0) for n, d in CAMPAIGN_GRID]
    camp_expected = functools.cache(lambda: [
        ref.Expected(f"n{n}_d{d}_k0", n, ref.kraus_random(n, d, sub),
                     CAMPAIGN_SAMPLES, ref.mix(sub, 1))
        for (n, d), sub in zip(CAMPAIGN_GRID, subs)
    ])

    def campaign_check(out: str, err: str) -> list[str]:
        bad, rows = ref.check_report(out_csv.read_text(), "csv", camp_expected())
        more, mirror = ref.check_report(
            out_csv.with_suffix(".json").read_text(), "json", camp_expected())
        bad += more
        if not bad and rows != mirror:
            bad.append("campaign CSV and JSON mirror disagree")
        if not bad and out != ref.campaign_summary(rows, subs):
            bad.append(f"campaign summary line wrong: {out!r}")
        return bad

    ops.append(Op("campaign", ["campaign", path, "--out", str(out_csv)],
                  len(CAMPAIGN_GRID), campaign_check,
                  files=(out_csv, out_csv.with_suffix(".json"))))

    # documents the parser must reject with exit code 2
    big = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    unitary = ref.orthonormal_columns(big)
    start = np.zeros(16, dtype=complex)
    start[0] = 1.0
    rejects = {
        "not_unitary": {"unitary": _pairs(big / 8.0), "ancilla": _pairs(start)},
        "ancilla_not_normalized": {"unitary": _pairs(unitary), "ancilla": _pairs(2.0 * start)},
        "ancilla_wrong_size": {"unitary": _pairs(unitary), "ancilla": _pairs(start[:8])},
    }
    for tag, attack in rejects.items():
        path = docs.write(f"{tag}.json", {
            "n_qubits": 2, "attack": attack, "povm_samples": CLI_SAMPLES,
            "seed": 1, "analyses": ["audit"],
        })
        ops.append(Op(f"reject:{tag}", ["audit", path], 0, _error_check, expect_rc=2))

    # non-finite numbers, which the parser accepts today (see README)
    path = docs.write("nan_param.json", (
        '{"n_qubits": 1, "attack": {"kind": "probe_overlap", "params": [NaN]}, '
        f'"povm_samples": {CLI_SAMPLES}, "seed": 1, "analyses": ["audit"]}}'
    ))
    ops.append(Op("reject:nan_param", ["audit", path], 0, _error_check,
                  expect_rc=2, may_fail=True))
    path = docs.write("inf_theta.json", (
        '{"n_qubits": 1, "attack": {"kind": "probe_overlap", "params": [0.5]}, '
        f'"povm_samples": {CLI_SAMPLES}, "seed": 1, "analyses": ["sweep"], '
        f'"sweep_thetas": [{thetas[0]!r}, Infinity]}}'
    ))
    ops.append(Op("reject:inf_theta", ["sweep", path], 0, _error_check,
                  expect_rc=2, may_fail=True))
    return ops


WORKLOADS = {"audit_sym": audit_sym, "audit_probe": audit_probe, "cli_small": cli_small}
