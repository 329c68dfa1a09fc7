"""Command-line front end.

Subcommands: ``audit <file>``, ``campaign <file>``, ``sweep <file>`` and
``zoo``.  Exit codes: 0 success, 2 validation or parse error, 3 theorem
violation (an internal-bug signal), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace

from .errors import MubeveError, ParseError, TheoremViolation, ValidationError
from .harness import (
    attack_label,
    checked_path,
    parse_campaign,
    parse_scenario,
    run_campaign,
    run_scenario,
    run_sweep,
    sigma_spectrum_detail,
    write_report,
)
from .zoo import KINDS

_ZOO_NOTES = {
    "identity": "no interaction; zero disturbance and zero information",
    "phase_conversion": "per-qubit value flip; deterministic error, no gain",
    "intercept_resend": "measure in basis b and resend; pointer per string",
    "cnot_probe": "per-qubit copy into fresh ancilla qubits",
    "probe_overlap": "n=1 probe pair with overlap cos(theta); params: [theta]",
    "random_unitary": "seeded Haar-style interaction; fields: eve_dim, seed",
}


def _emit(payload: bytes, out: str | None) -> None:
    if out is None:
        sys.stdout.write(payload.decode("utf-8"))
    else:
        checked_path(out, "--out").write_bytes(payload)


def _seed_override(args) -> int | None:
    """The ``--seed`` value, held to the rule documents follow: >= 0."""
    if args.seed is not None and args.seed < 0:
        raise ValidationError("--seed", f"must be >= 0, got {args.seed}")
    return args.seed


def _cmd_audit(args) -> int:
    seed = _seed_override(args)
    cfg = parse_scenario(checked_path(args.file, "file").read_bytes())
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    report = run_scenario(cfg)
    _emit(write_report([(attack_label(cfg), report)], args.format), args.out)
    if "sigma_spectrum" in cfg.analyses:
        detail = sigma_spectrum_detail(report)
        print("sigma_spectrum " + json.dumps(detail), file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    seed = _seed_override(args)
    cfg = parse_scenario(checked_path(args.file, "file").read_bytes())
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    rows = [
        (f"probe_overlap[theta={theta:.17g}]", report)
        for theta, report in run_sweep(cfg)
    ]
    _emit(write_report(rows, args.format), args.out)
    return 0


def _cmd_campaign(args) -> int:
    seed = _seed_override(args)
    cfg = parse_campaign(checked_path(args.file, "file").read_bytes())
    if seed is not None:
        cfg = replace(cfg, master_seed=seed)
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
    for kind in KINDS:
        print(f"{kind:18s} {_ZOO_NOTES[kind]}")
    return 0


@functools.cache  # parse_args leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="override the configured seed")
    common.add_argument("--out", default=None,
                        help="write output to this path instead of stdout")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="report serialization (default csv)")

    parser = argparse.ArgumentParser(
        prog="mubeve",
        description="Eavesdropping-attack audits for mutually unbiased bases",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_audit = sub.add_parser("audit", parents=[common],
                             help="audit one configured attack")
    p_audit.add_argument("file")
    p_audit.set_defaults(handler=_cmd_audit)

    p_campaign = sub.add_parser("campaign", parents=[common],
                                help="audit a grid of seeded random attacks")
    p_campaign.add_argument("file")
    p_campaign.set_defaults(handler=_cmd_campaign)

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="audit the probe-overlap family over angles")
    p_sweep.add_argument("file")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_zoo = sub.add_parser("zoo", help="list built-in attacks")
    p_zoo.set_defaults(handler=_cmd_zoo)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
