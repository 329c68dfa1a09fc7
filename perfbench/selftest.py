"""Shows that the reference checker rejects perturbed reports.

    python3 perfbench/selftest.py

Runs the ``cli_small`` commands once through ``mubeve.cli.main``, confirms
that the checker accepts their real output, then changes one thing at a
time in an output and confirms that the checker rejects every change.
Exits 0 when the real outputs pass and every change is caught.
"""

from __future__ import annotations

import json
import math
import shutil
import sys

import run
import reference as ref
import workloads

SEED = 7


def _set_field(csv: str, field: str, value: float, row: int = 1) -> str:
    """Replace one real field of one CSV row, keeping the slacks consistent."""
    lines = csv.split("\n")
    cells = dict(zip(ref.FIELDS, lines[row].split(",")))
    cells[field] = format(value, ".17g")
    h, chi, il = (float(cells[k]) for k in ("h_xor", "chi_sym", "i_lower"))
    cells["slack_main"] = format(h - chi + 0.0, ".17g")
    cells["slack_measured"] = format(h - il + 0.0, ".17g")
    lines[row] = ",".join(cells[k] for k in ref.FIELDS)
    return "\n".join(lines)


def _field(csv: str, field: str, row: int = 1) -> float:
    return float(dict(zip(ref.FIELDS, csv.split("\n")[row].split(",")))[field])


def main() -> int:
    workdir = run.OUT / f"selftest-{SEED}"
    cli = run._load_cli()
    try:
        ops = {op.label: op for op in workloads.cli_small(SEED, workdir)}
        outputs = {}
        failures = []
        for op in ops.values():
            rc, out, err, _ = run.call(cli, op.argv)
            outputs[op.label] = (rc, out, err)
            if op.may_fail:
                continue
            bad = ([f"exit {rc}"] if rc != op.expect_rc else []) + op.check(out, err)
            if bad:
                failures.append(f"real output of {op.label} rejected: {bad[:2]}")

        def expect_reject(what, label, out=None, err=None):
            _, real_out, real_err = outputs[label]
            bad = ops[label].check(real_out if out is None else out,
                                   real_err if err is None else err)
            print(f"rejected  {what}: {bad[0]}" if bad else f"ACCEPTED  {what}")
            if not bad:
                failures.append(f"perturbation not caught: {what}")

        ru = outputs["audit:random_unitary:csv"][1]
        chi = _field(ru, "chi_sym")
        expect_reject("chi_sym off by 1e-8, slack adjusted", "audit:random_unitary:csv",
                      _set_field(ru, "chi_sym", chi + 1e-8))
        expect_reject("i_lower off by 1e-8, slack adjusted", "audit:random_unitary:csv",
                      _set_field(ru, "i_lower", _field(ru, "i_lower") - 1e-8))
        expect_reject("slack_main inconsistent by one ulp", "audit:random_unitary:csv",
                      ru.replace(ru.split("\n")[1].split(",")[10],
                                 format(math.nextafter(_field(ru, "slack_main"), 9.0), ".17g")))
        expect_reject("real printed with 16 digits", "audit:random_unitary:csv",
                      ru.replace(format(chi, ".17g"), format(chi, ".16g")))
        expect_reject("CSV header changed", "audit:random_unitary:csv",
                      ru.replace("chi_sym", "chi_s", 1))
        expect_reject("attack id changed", "audit:random_unitary:csv",
                      ru.replace("random_unitary[n=2", "random_unitary[n=3"))
        po = outputs["audit:probe_overlap:csv"][1]
        expect_reject("probe_overlap delta off its closed form by 1e-11",
                      "audit:probe_overlap:csv",
                      _set_field(po, "delta", _field(po, "delta") + 1e-11))
        ir = outputs["audit:intercept_resend:csv"][1]
        expect_reject("intercept_resend i_lower below n", "audit:intercept_resend:csv",
                      _set_field(ir, "i_lower", 1.5))

        # the JSON mirror differs from the CSV below the recomputation tolerance
        js = outputs["audit:identity:json"][1]
        expect_reject("JSON mirror differs from CSV by 1e-13", "audit:identity:json",
                      js.replace('"chi_orig": 0.0', '"chi_orig": 1e-13'))

        prefix = "sigma_spectrum "
        detail = json.loads(outputs["audit:phase_conversion:csv"][2][len(prefix):])
        detail["lambda"][0] += 1e-3
        expect_reject("sigma_spectrum eigenvalue moved", "audit:phase_conversion:csv",
                      err=prefix + json.dumps(detail) + "\n")
        expect_reject("campaign summary names another worst attack", "campaign",
                      outputs["campaign"][1].replace("worst attack n", "worst attack m"))
        expect_reject("rejected document without an 'error:' line", "reject:not_unitary",
                      err="")
        expect_reject("rejected document that printed a report", "reject:not_unitary",
                      out=ru)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
