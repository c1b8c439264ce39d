"""Command line interface.

    audit run     --config cfg.json --seed 7 --trials 10 --out results/
    audit margins --contest contest.csv [--knesset knesset.json] [--weaken P1:P2]
    audit census  --model districts.csv (--households h.csv | --generate ...) --out out/

``audit census`` builds a census experiment config from its flags and runs
it through :func:`electaudit.harness.run_experiment`, as ``audit run`` would:
one trial on a household file, ``--trials`` trials of generated households.

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

from . import census as census_mod
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

    cens = sub.add_parser("census", help="audit a census apportionment against survey data")
    cens.add_argument("--model", required=True, help="district,population,c_constant CSV")
    cens.add_argument("--households", default=None, help="household CSV with survey results")
    cens.add_argument("--generate", action="store_true", help="generate households instead")
    cens.add_argument("--household-dist", default=None, help="size,probability CSV for generation")
    cens.add_argument("--nonresponse", type=float, help="generated non-response rate (0.01)")
    cens.add_argument("--disagree", type=float, help="generated survey disagreement rate (0)")
    cens.add_argument("--representatives", type=int, default=56)
    cens.add_argument("--g-max", type=int, default=census_mod.DEFAULT_GMAX)
    cens.add_argument("--divisor", default="dhondt")
    cens.add_argument("--delta", type=float, default=census_mod.DEFAULT_DELTA)
    cens.add_argument(
        "--sample-frac",
        default=None,
        help="comma-separated surveyed fractions for generated runs, e.g. 0.0066,0.0087",
    )
    cens.add_argument("--trials", type=int, help="generated trials (10)")
    cens.add_argument("--seed", type=int, default=0)
    cens.add_argument("--out", required=True, help="output directory for CSV tables")
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


# Flags of generated census runs, with their defaults there.
_GENERATION_FLAGS = {
    "sample_frac": None, "household_dist": None, "disagree": 0.0, "nonresponse": 0.01, "trials": 10
}


def _cmd_census(args) -> int:
    if args.generate == (args.households is not None):
        raise ConfigError("give exactly one of --households or --generate")
    for flag, default in _GENERATION_FLAGS.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
        elif not args.generate:
            raise ConfigError(f"--{flag.replace('_', '-')} applies only to --generate")
    config = {
        "audit": "census",
        "districts": args.model,
        "representatives": args.representatives,
        "g_max": args.g_max,
        "divisor": args.divisor,
        "delta": args.delta,
        "households": args.households,
        "trials": args.trials if args.generate else 1,
        "seed": args.seed,
    }
    if args.generate:
        if not args.household_dist or not args.sample_frac:
            raise ConfigError("--generate needs --household-dist and --sample-frac")
        config.update(
            disagreement_rate=args.disagree,
            sample_fractions=[float(x) for x in args.sample_frac.split(",")],
            households={"generate": {"household_dist": args.household_dist,
                                     "nonresponse": args.nonresponse}},
        )
    run_experiment(config, args.out)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = {"run": _cmd_run, "margins": _cmd_margins, "census": _cmd_census}[args.command]
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
