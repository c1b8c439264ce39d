"""Command line interface.

    audit run     --config cfg.json --seed 7 --trials 10 --out results/
    audit margins --contest contest.csv [--knesset knesset.json] [--weaken P1:P2]

Every experiment, election or census, on generated data or on a batch or
household file, is ``audit run`` on a JSON config, which
:func:`electaudit.harness.run_experiment` reads.

Exit codes: 0 for a completed run (a full-recount outcome is still a
completed run, and so is one whose stdout reader stopped reading), 2 for
malformed configuration or data.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .harness import (
    ConfigError,
    _pct,
    election_assertions,
    load_election_inputs,
    run_experiment,
)
from .knesset import assertion_margin


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="audit", description="Risk-limiting audits for elections and censuses"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a configured Monte Carlo audit experiment")
    run.add_argument("--config", required=True, help="JSON experiment configuration")
    run.add_argument("--seed", type=int, default=None, help="root seed (overrides config)")
    run.add_argument("--trials", type=int, default=None, help="trial count (overrides config)")
    run.add_argument("--out", required=True, help="output directory for CSV tables")
    run.add_argument("--trace", action="store_true", help="write per-step test state CSVs")
    run.add_argument("--jobs", type=int, default=1, help="run trials in this many processes")

    margins = sub.add_parser("margins", help="print assertion margins for a contest")
    margins.add_argument("--contest", required=True, help="party,reported_votes CSV")
    margins.add_argument("--knesset", default=None, help="Knesset contest JSON config")
    margins.add_argument(
        "--weaken",
        action="append",
        default=[],
        metavar="GAINER:KEEPER",
        help="use the one-seat move-seat form for this unit pair (repeatable)",
    )

    return parser


def _cmd_run(args) -> int:
    run_experiment(
        args.config, args.out, seed=args.seed, trials=args.trials, trace=args.trace,
        jobs=args.jobs,
    )
    return 0


def _cmd_margins(args) -> int:
    contest, reported, kc = load_election_inputs(args.contest, args.knesset)
    weaken = []
    for spec in args.weaken:
        gainer, _, keeper = spec.partition(":")
        if not keeper:
            raise ConfigError(f"--weaken wants GAINER:KEEPER, got {spec!r}")
        weaken.append((gainer, keeper))
    assertions = election_assertions(contest, kc, reported, weaken)
    writer = csv.writer(sys.stdout)
    writer.writerow(["assertion", "margin", "margin_pct"])
    for a in assertions:
        m = assertion_margin(a, reported)
        writer.writerow([a.label, m, _pct(m, reported.total)])
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = {"run": _cmd_run, "margins": _cmd_margins}[args.command]
    try:
        status = command(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at shutdown
        return status
    except BrokenPipeError:
        # the reader of stdout stopped reading; the shutdown flush goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ConfigError, ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"audit: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
