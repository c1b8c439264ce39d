"""Benchmark workloads: which input, which audit kinds, and how a trial is checked.

A workload is one input set and the audit kinds run on it, one trial of
each kind per seed:

* ``knesset_compare`` (``alpha``, ``alpha_batch``, ``batchcomp``): the
  shipped ``configs/batchcomp_knesset.json`` unchanged (120,237 ballots,
  about 305 batches, 56 Knesset assertions, no errors).  Its 3-ballot
  ``no-seat-move:Carmel->Alon`` margin forces both batch audits into a full
  count, so they walk every batch for every assertion and exact
  ``Fraction`` assorter means dominate.
* ``national_early`` (``batchcomp``, ``alpha``): the contest scaled to
  4,399,999 ballots (see ``national_contest.py``), dealt into about 11k
  batches with ballot misreads; plurality assertions with a smallest
  margin near 5%.  Every audit stops early, so the O(B^2) draw order, the
  B x assertion value pass and the O(n) ballot-level work dominate instead
  of the test loop.
* ``cyprus_census`` (``census``): ``configs/census_cyprus.json`` with a 0.5%
  survey disagreement rate, the only input that exercises ``census`` and
  ``apportionment`` heavily.

One seed drives the data of every kind, so the kinds of a workload are
paired: they audit identical batches with identical draw randomness.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

KNESSET_MIN_MARGIN = 3  # ballots; the Carmel->Alon seat margin of the shipped contest


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: tuple[str, ...]  # audit kinds, run in this order on every seed
    config: str  # experiment config, relative to the repo root

    def load_config(self) -> dict:
        with open(ROOT / self.config, encoding="utf-8") as f:
            return json.load(f)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("knesset_compare", ("alpha", "alpha_batch", "batchcomp"),
                 "configs/batchcomp_knesset.json"),
        Workload("national_early", ("batchcomp", "alpha"), "bench/inputs/national_early.json"),
        Workload("cyprus_census", ("census",), "bench/inputs/cyprus_census.json"),
    )
}

OUTPUT_FILES = ("results.csv", "summary.csv", "risk_curve.csv", "risk_summary.csv")


def load_inputs(config: dict):
    """Read the workload's input files with the package's own loaders.

    This is the input-loading part of ``setup_s``; relative paths resolve
    against the current directory, which the runner sets to the repo root.
    """
    if "districts" in config:
        from electaudit.census import load_districts_csv
        from electaudit.harness import load_household_distribution

        pops, _ = load_districts_csv(config["districts"])
        dist = load_household_distribution(config["households"]["generate"]["household_dist"])
        return pops, dist
    from electaudit.core import load_contest_csv
    from electaudit.knesset import load_knesset_config

    contest, tally = load_contest_csv(config["contest"])
    knesset = load_knesset_config(config["knesset"]) if config.get("knesset") else None
    return contest, tally, knesset


def output_hashes(out_dir: Path) -> dict[str, str]:
    """sha256 of each table a trial wrote; recorded, never gated on."""
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in OUTPUT_FILES
        if (out_dir / name).exists()
    }


class Checker:
    """Invariants every correct implementation keeps, checked per trial.

    Results need not be identical across implementations; these checks hold
    for any correct one.
    """

    def __init__(self, workload: Workload, config: dict):
        self.workload = workload
        self.config = config
        self.inputs = load_inputs(config)
        self._margins: dict[tuple, dict[str, int]] = {}

    def check(self, seed: int, kind: str, reports, out_dir: Path) -> list[str]:
        """Failure messages for one ``run_experiment(..., trials=1)`` call."""
        if kind == "census":
            return self._check_census(reports, out_dir)
        return self._check_election(seed, reports, out_dir)

    def _check_census(self, reports, out_dir: Path) -> list[str]:
        errors = []
        fractions = self.config["sample_fractions"]
        if len(reports) != len(fractions):
            errors.append(f"{len(reports)} census reports for {len(fractions)} sample fractions")
        for rep in reports:
            risks = [rep.risk_limit] + [row["risk"] for row in rep.per_assertion.values()]
            if not all(0.0 <= r <= 1.0 for r in risks):
                errors.append(f"a risk outside [0, 1] at sample fraction {rep.sample_fraction}")
            if not 0 < rep.ballots_examined <= rep.total_ballots:
                errors.append(f"{rep.ballots_examined} households examined of {rep.total_ballots}")
        with open(out_dir / "risk_curve.csv", newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        if len(rows) != len(fractions):
            errors.append(f"risk_curve.csv has {len(rows)} rows, expected {len(fractions)}")
        for row in rows:
            risk = _parse_risk(row["risk_limit"])
            if not 0.0 <= risk <= 1.0:
                errors.append(f"risk_curve.csv risk {risk} outside [0, 1]")
        return errors

    def _check_election(self, seed: int, reports, out_dir: Path) -> list[str]:
        _, tally, _ = self.inputs
        if len(reports) != 1:
            return [f"{len(reports)} reports for one trial"]
        rep = reports[0]
        errors = []
        if rep.full_count != (not rep.approved):
            errors.append(f"full_count={rep.full_count} but approved={rep.approved}")
        if not 0 < rep.ballots_examined <= rep.total_ballots:
            errors.append(f"{rep.ballots_examined} ballots examined of {rep.total_ballots}")
        if rep.total_ballots != tally.total:
            errors.append(f"trial covers {rep.total_ballots} ballots, contest has {tally.total}")

        with open(out_dir / "results.csv", newline="", encoding="utf-8") as f:
            got = {row["assertion"]: int(row["margin"]) for row in csv.DictReader(f)}
        reported = self._reported_votes(seed)
        expected = self._expected_margins(reported)
        if got != expected:
            wrong = sorted(k for k in expected.keys() | got.keys() if got.get(k) != expected.get(k))
            errors.append(f"results.csv margins differ from assertion_margin for {wrong[:3]}")

        if self.workload.name == "knesset_compare":
            if got and min(got.values()) != KNESSET_MIN_MARGIN:
                errors.append(f"smallest margin {min(got.values())}, expected {KNESSET_MIN_MARGIN}")
        if self.workload.name == "national_early":
            if not rep.approved or rep.full_count:
                errors.append("national_early trial did not approve without a full count")
            errors += _check_plurality_margins(got, reported)
        return errors

    def _reported_votes(self, seed: int) -> dict[str, int]:
        """Reported votes per ballot-type name, regenerated from the trial's data stream."""
        from electaudit.harness import ErrorModel, deal_batches, inject_ballot_errors, trial_rngs

        _, tally, _ = self.inputs
        model = ErrorModel(**(self.config.get("error_model") or {"kind": "none"}))
        if model.kind == "none":
            return {bt.name: c for bt, c in tally.counts.items()}
        data_rng, _ = trial_rngs(seed)
        size_range = tuple(self.config["batches"]["generate"]["size_range"])
        batches = deal_batches(tally, data_rng, size_range=size_range)
        votes = {bt.name: 0 for bt in tally.counts}
        for batch in inject_ballot_errors(batches, model, data_rng):
            for bt, c in batch.reported.counts.items():
                votes[bt.name] += c
        return votes

    def _expected_margins(self, votes: dict[str, int]) -> dict[str, int]:
        key = tuple(sorted(votes.items()))
        if key not in self._margins:
            from electaudit.harness import plurality_assertions
            from electaudit.knesset import allocate_seats, assertion_margin, generate_assertions

            contest, _, knesset = self.inputs
            reported = contest.tally(votes)
            if knesset is None:
                assertions = plurality_assertions(contest, reported)
            else:
                seats = allocate_seats(knesset, reported)
                assertions = generate_assertions(knesset, reported, seats)
            self._margins[key] = {a.label: assertion_margin(a, reported) for a in assertions}
        return self._margins[key]


def _parse_risk(text: str) -> float:
    """A risk as ``risk_curve.csv`` writes it.

    The harness writes ``repr`` of the value, which under numpy 2 reads
    ``np.float64(0.25)`` when the risk is a numpy scalar.
    """
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _check_plurality_margins(got: dict[str, int], votes: dict[str, int]) -> list[str]:
    """Closed form for a plurality assertion: ceil((v_winner - v_loser) / 2) relabels."""
    errors = []
    for label, margin in got.items():
        winner, loser = label.removeprefix("plurality:").split(">")
        expected = (votes[winner] - votes[loser] + 1) // 2
        if margin != expected:
            errors.append(f"{label}: margin {margin}, closed form gives {expected}")
    return errors
