"""Benchmark of the mubeve audit pipeline.

    python3 perfbench/run.py --workload audit_sym --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process drives ``mubeve.cli.main`` in a closed loop: each
command starts when the previous one has ended, on one thread, with one
BLAS thread.  A run repeats whole rounds of its workload's commands until
the commands have taken ``--seconds`` (and at least MIN_OPS have run),
checks every output with the reference checker, and prints one JSON
object as its last line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced rounds with rounds run under the span recorder and reports the
per-layer metrics, the recorder's overhead, and writes the spans to
``perfbench/out/``.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_OPS = 100          # so that op_ms.tail has at least 10 samples beyond it
TAIL_PERCENTILE = 90
MAX_OP_SECONDS = 90    # stop here even short of MIN_OPS, to end in time
SETUP_STARTS = 7       # fresh interpreters timed for setup_s


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("audit_sym", "audit_probe", "cli_small"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="set up, print 'ready' and exit (used to time setup_s)")
    return p.parse_args(argv)


def _load_cli():
    src = ROOT / "src"
    if not (src / "mubeve" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources at {src / 'mubeve'}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import mubeve.cli
    return mubeve.cli


def call(cli, argv, recorder=None):
    """Run one command in-process: (exit code or None, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        span = recorder.begin("cli.command") if recorder else None
        try:
            rc, failure = cli.main(argv), None
        except Exception as exc:
            rc, failure = None, exc
        finally:
            if recorder:
                recorder.finish(span)
            elapsed = time.perf_counter() - t0
    text = err.getvalue()
    if failure is not None:
        text += "".join(traceback.format_exception(failure))
    return rc, out.getvalue(), text, elapsed


def setup(args, workdir):
    """Everything before the first timed command: imports, inputs, warm-up."""
    cli = _load_cli()
    import workloads
    ops = workloads.WORKLOADS[args.workload](args.seed, workdir)
    call(cli, ops[0].argv)
    return cli, ops


def time_setup(args) -> list[float]:
    """Seconds from spawning a fresh interpreter to its first timed command."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--probe"]
    times = []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            proc.wait(timeout=120)
        if line != "ready\n" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return times


class Run:
    """Executes rounds, checks each output, and keeps the samples."""

    def __init__(self, cli, ops, recorder=None):
        self.cli, self.ops, self.recorder = cli, ops, recorder
        self.first: dict[int, tuple] = {}
        self.problems: list[str] = []
        self.attempted = self.failed = self.rows = 0
        self.seconds = 0.0
        self.times = {False: [], True: []}   # by traced
        self.round_counts = None

    def record(self, i, result):
        op = self.ops[i]
        rc, out, err, _ = result
        if rc != op.expect_rc:
            self.failed += 1
            if not op.may_fail:
                last = err.strip().splitlines()[-1:] or [""]
                self.problems.append(f"{op.label}: exit {rc}, expected {op.expect_rc}: {last[0]}")
            return
        self.rows += op.rows
        outcome = (rc, out, tuple(p.read_bytes() for p in op.files))
        if i not in self.first:
            self.first[i] = outcome
            self.problems += [f"{op.label}: {p}" for p in op.check(out, err)]
        elif outcome != self.first[i]:
            self.problems.append(f"{op.label}: output differs from the first run")

    def round(self, traced: bool):
        rec = self.recorder if traced else None
        if rec:
            rec.install()
            mark = len(rec.name)
        try:
            for i, op in enumerate(self.ops):
                if rec:
                    rec.op_id = self.attempted
                result = call(self.cli, op.argv, rec)
                self.attempted += 1
                self.seconds += result[3]
                self.times[traced].append(result[3] * 1000.0)
                self.record(i, result)
        finally:
            if rec:
                rec.uninstall()
        if rec:
            counts = rec.counts(mark, len(rec.name))
            if self.round_counts is None:
                self.round_counts = counts
            elif counts != self.round_counts:
                self.problems.append("trace counts differ between identical rounds")

    def loop(self, seconds: float):
        rounds = 0
        while True:
            self.round(self.recorder is not None and rounds % 2 == 1)
            rounds += 1
            if self.recorder and rounds % 2:
                continue
            if self.seconds >= MAX_OP_SECONDS:
                break
            if self.seconds >= seconds and self.attempted >= MIN_OPS:
                break


def percentile(samples, pct):
    """Nearest-rank percentile."""
    s = sorted(samples)
    k = max(1, -(-len(s) * pct // 100))
    return s[int(k) - 1]


def end_to_end(run: Run, setup_times) -> dict:
    times = run.times[False]
    return {
        "audits_per_s": (run.rows / run.seconds, "1/s"),
        "op_ms.p50": (statistics.median(times), "ms"),
        "op_ms.tail": (percentile(times, TAIL_PERCENTILE), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def per_layer(run: Run) -> dict:
    rec = run.recorder
    traced = run.times[True]
    out = {}
    for key, value in rec.per_op(len(traced)).items():
        out[key] = (value, "ms" if key.endswith("ms") else "count")
    # traced and untraced rounds alternate, so both sums cover the same commands
    out["trace.overhead_ratio"] = (sum(traced) / sum(run.times[False]), "ratio")
    out["trace.spans_per_op"] = (len(rec.name) / len(traced), "count")
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    # One BLAS thread for the single closed-loop client; set before numpy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE))
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.probe:
            setup(args, workdir)
            print("ready", flush=True)
            return 0
        _load_cli()  # fail before spawning probes when the sources are missing
        setup_times = [] if args.trace else time_setup(args)
        cli, ops = setup(args, workdir)
        recorder = None
        if args.trace:
            import spans
            recorder = spans.Recorder()
        run = Run(cli, ops, recorder)
        run.loop(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = per_layer(run) if args.trace else end_to_end(run, setup_times)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for p in run.problems[:20]:
        print(f"perfbench: {p}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if recorder:
        recorder.write(OUT / f"spans-{tag}.tsv")
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
