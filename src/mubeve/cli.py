"""Command-line front end.

Subcommands: ``audit <file>``, ``campaign <file>``, ``sweep <file>`` and
``zoo``.  The three document commands take ``--seed`` and ``--out``;
``audit`` and ``sweep`` also take ``--format``, while a campaign always
writes its CSV and the JSON mirror.  Exit codes: 0 success, 2 validation
or parse error, 3 theorem violation (an internal-bug signal), 4 I/O
failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace

from .errors import MubeveError, TheoremViolation
from .harness import (
    attack_label,
    check_analyses,
    checked_path,
    parse_campaign,
    parse_scenario,
    read_seed,
    run_campaign,
    run_scenario,
    run_sweep,
    sigma_spectrum_detail,
    write_report,
)
from .zoo import KINDS


def _emit(payload: bytes, out: str | None) -> None:
    if out is None:
        sys.stdout.write(payload.decode("utf-8"))
    else:
        checked_path(out, "--out").write_bytes(payload)


def _load(args, parse, seed_key):
    """The document named on the command line, parsed by ``parse``, with a
    ``--seed`` override put in its ``seed_key`` field.  The override obeys
    the rule of document seeds and is checked before the document is read."""
    seed = None if args.seed is None else read_seed(args.seed, "--seed")
    cfg = parse(checked_path(args.file, "file").read_bytes())
    return cfg if seed is None else replace(cfg, **{seed_key: seed})


def _cmd_audit(args) -> int:
    cfg = _load(args, parse_scenario, "seed")
    check_analyses(cfg, "audit")
    report = run_scenario(cfg)
    _emit(write_report([(attack_label(cfg), report)], args.format), args.out)
    if "sigma_spectrum" in cfg.analyses:
        detail = sigma_spectrum_detail(report)
        print("sigma_spectrum " + json.dumps(detail), file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load(args, parse_scenario, "seed")
    check_analyses(cfg, "sweep")
    _emit(write_report(run_sweep(cfg), args.format), args.out)
    return 0


def _cmd_campaign(args) -> int:
    cfg = _load(args, parse_campaign, "master_seed")
    summary = run_campaign(cfg, output_path=args.out)
    print(
        f"campaign: {summary.rows} attacks, "
        f"min slack_main {summary.min_slack_main:.3e}, "
        f"min slack_measured {summary.min_slack_measured:.3e}, "
        f"max spectrum_deviation {summary.max_spectrum_deviation:.3e}, "
        f"worst attack {summary.worst_attack_id} (seed {summary.worst_seed})"
    )
    return 0


def _cmd_zoo(args) -> int:
    for kind, entry in KINDS.items():
        print(f"{kind:18s} {entry.note}")
    return 0


@functools.cache  # parse_args leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="override the configured seed")
    common.add_argument("--out", default=None,
                        help="write output to this path instead of stdout")
    report = argparse.ArgumentParser(add_help=False, parents=[common])
    report.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="report serialization (default csv)")

    parser = argparse.ArgumentParser(
        prog="mubeve",
        description="Eavesdropping-attack audits for mutually unbiased bases",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, parent, handler, text in (
        ("audit", report, _cmd_audit, "audit one configured attack"),
        ("campaign", common, _cmd_campaign, "audit a grid of seeded random attacks"),
        ("sweep", report, _cmd_sweep, "audit the probe-overlap family over angles"),
    ):
        command = sub.add_parser(name, parents=[parent], help=text)
        command.add_argument("file")
        command.set_defaults(handler=handler)

    p_zoo = sub.add_parser("zoo", help="list built-in attacks")
    p_zoo.set_defaults(handler=_cmd_zoo)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except TheoremViolation as exc:
        print(f"theorem violation (implementation bug): {exc}", file=sys.stderr)
        return 3
    except MubeveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
