"""Data generation, error injection, Monte Carlo orchestration and reporting.

Randomness contract: trial i draws its seed from the config's ``seeds`` list
(default 0, 1, ..., trials-1).  Within a trial, stream 0 of that seed
generates data and stream 1 drives the audit's sampling, so two audit methods
run on the same trial see identical batches and identical draw randomness;
comparisons between them are paired by construction.

A trial deals (:func:`deal_matrix`) or loads its batches once into one
:class:`electaudit.core.BatchMatrix` and injects misreads into all its rows
at once (:func:`inject_misreads`).  The same matrix goes to whichever audit
runs, which reads the reported tally from it as the column sum.
:func:`deal_batches` and :func:`inject_ballot_errors` make the same draws and
return ``BatchRecord`` lists.
"""

from __future__ import annotations

import csv
import json
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import census as census_mod
from .alpha import AuditConfig, AuditOutcome, alpha_audit, alpha_batch_audit
from .batchcomp import batchcomp_audit, load_batches_csv
from .core import Assorter, BatchMatrix, BatchRecord, Contest, Tally, batch_matrix
from .core import ConfigError, as_float, as_int, check_int64_total, load_contest_csv
from .core import plurality_assorter, read_csv
from .knesset import allocate_seats, assertion_margin, generate_assertions, load_knesset_config
from .randomness import make_rng

AUDIT_KINDS = ("alpha", "alpha_batch", "batchcomp", "census")


@dataclass(frozen=True)
class ErrorModel:
    """How the reported count deviates from the truth.

    ``ballot_misread``: each ballot is independently misread with probability
    ``p_misread``; a misread ballot is recorded invalid with probability
    ``p_invalid``, otherwise credited to a party drawn uniformly at random.
    ``census_disagree``: the survey re-draws its count for a ``rate`` share
    of households.
    """

    kind: str = "none"
    p_misread: float = 0.0
    p_invalid: float = 0.0
    rate: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "ballot_misread", "census_disagree"):
            raise ValueError(f"unknown error model {self.kind!r}")
        for name in ("p_misread", "p_invalid", "rate"):
            if not 0 <= as_float(getattr(self, name)) <= 1:
                raise ValueError(f"{name} must be a probability")


@dataclass
class TrialReport:
    seed: int
    audit: str
    approved: bool
    full_count: bool
    ballots_examined: int
    total_ballots: int
    per_assertion: dict[str, dict]
    risk_limit: float | None = None
    sample_fraction: float | None = None
    wall_time: float = 0.0


def trial_rngs(seed: int) -> tuple[np.random.Generator, tuple[int, int]]:
    """(data generator, audit seed) for one trial; see the module docstring."""
    data_rng = make_rng((seed, 0))
    return data_rng, (seed, 1)


def deal_matrix(
    truth: Tally,
    rng,
    sizes: Sequence[int] | None = None,
    size_range: tuple[int, int] = (250, 550),
) -> BatchMatrix:
    """Partition a true tally into batches by dealing a shuffled deck.

    Batch composition is hypergeometric around the overall vote shares, the
    way single polling places scatter around a national result.  Reported
    counts start out equal to the truth; inject errors separately.  Without
    explicit ``sizes``, draws are uniform over ``size_range`` with the tail
    merged into the final batch.  The deck holds one type index per ballot,
    types sorted by name, and batch b takes the next ``sizes[b]`` cards; one
    ``bincount`` of ``b * K + type`` counts every batch.
    """
    types = tuple(sorted(truth.counts, key=lambda bt: bt.name))
    n = truth.total
    check_int64_total(n)
    deck = np.repeat(np.arange(len(types)), [truth.get(bt) for bt in types])
    rng.shuffle(deck)
    if sizes is None:
        lo, hi = size_range
        if lo < 1:
            raise ValueError(f"batch size range {tuple(size_range)} must start at 1 or more")
        if hi < 2 * lo:
            raise ValueError("size range too narrow: need max >= 2 * min to always partition")
        if n < lo:
            raise ValueError(f"{n} ballots cannot fill a batch of at least {lo}")
        sizes = []
        left = n
        while left > hi:
            # cap at left - lo so the remainder always stays partitionable
            take = min(int(rng.integers(lo, hi + 1)), left - lo)
            sizes.append(take)
            left -= take
        sizes.append(left)
    elif sum(sizes) != n:
        raise ValueError(f"batch sizes sum to {sum(sizes)}, expected {n}")
    sizes = np.array(sizes, dtype=np.int64)
    if (sizes <= 0).any():
        raise ValueError("batch sizes must be positive")
    k = len(types)
    cells = np.repeat(np.arange(0, len(sizes) * k, k), sizes)
    cells += deck
    counts = np.bincount(cells, minlength=len(sizes) * k).reshape(len(sizes), k)
    return BatchMatrix(types, counts, counts, sizes)


def inject_misreads(m: BatchMatrix, model: ErrorModel, rng) -> BatchMatrix:
    """``m`` with its reported counts recomputed by misreading the true ballots.

    Batch totals are preserved: every misread ballot stays in its batch,
    only its recorded category moves.  One binomial draw over the whole
    count matrix gives each cell's misreads, one per batch their invalid
    share, and one multinomial per batch row splits the rest uniformly over
    the parties: the ballots misread in a batch share one split law, and a
    sum of multinomials with equal p is a multinomial.
    """
    if model.kind != "ballot_misread":
        raise ValueError("error model is not ballot_misread")
    invalid = next((k for k, bt in enumerate(m.types) if bt.is_invalid), None)
    parties = [k for k, bt in enumerate(m.types) if not bt.is_invalid]
    if invalid is None or not parties:
        raise ValueError("misreads need an invalid ballot type and a party to land on")
    misread = rng.binomial(m.truth, model.p_misread)
    lost = misread.sum(axis=1)
    to_invalid = rng.binomial(lost, model.p_invalid)
    reported = m.truth - misread
    reported[:, invalid] += to_invalid
    reported[:, parties] += rng.multinomial(lost - to_invalid, [1.0 / len(parties)] * len(parties))
    return replace(m, reported=reported)


def deal_batches(
    truth: Tally,
    rng,
    sizes: Sequence[int] | None = None,
    size_range: tuple[int, int] = (250, 550),
) -> list[BatchRecord]:
    """:func:`deal_matrix` as a batch list, ids ``batch-00000`` on: the same draws."""
    m = deal_matrix(truth, rng, sizes, size_range)
    return [BatchRecord(f"batch-{i:05d}", t, t, t.total) for i, t in enumerate(m.tallies(m.truth))]


def inject_ballot_errors(
    truth: Sequence[BatchRecord], model: ErrorModel, rng
) -> list[BatchRecord]:
    """:func:`inject_misreads` on padded batches as a batch list: the same
    draws, truth unchanged."""
    m = inject_misreads(batch_matrix(truth), model, rng)
    return [replace(b, reported=t) for b, t in zip(truth, m.tallies(m.reported))]


def plurality_assertions(contest: Contest, reported: Tally) -> list[Assorter]:
    """One winner-vs-loser assorter per reported loser."""
    parties = sorted(contest.parties, key=lambda bt: (-reported.get(bt), bt.name))
    if not parties:
        raise ValueError("a plurality contest needs at least one party")
    winner = parties[0]
    return [plurality_assorter(winner, loser, contest) for loser in parties[1:]]


def run_election_trial(
    kind: str,
    m: BatchMatrix,
    assertions: list[Assorter],
    alpha: float,
    delta: float,
    audit_seed,
    trace=None,
) -> AuditOutcome:
    """One audit of the batches ``m``."""
    cfg = AuditConfig(alpha=alpha, seed=audit_seed)
    if kind == "batchcomp":
        return batchcomp_audit(m, assertions, cfg, delta=delta, trace=trace)
    if kind == "alpha_batch":
        return alpha_batch_audit(m, assertions, cfg, trace=trace)
    if kind == "alpha":
        return alpha_audit(m, assertions, cfg, trace=trace)
    raise ValueError(f"unknown audit kind {kind!r}")


def _require(cfg: Mapping, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing {key!r}")
    return cfg[key]


def _read(cfg: Mapping, key: str, convert, default=None):
    """``convert(cfg[key])``, or of ``default`` when the key is absent.  A value
    that ``convert`` rejects is a :class:`ConfigError`, a wrong type included."""
    value = cfg.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config {key!r} is malformed: {value!r}") from exc


def _path(cfg: Mapping, key: str) -> str:
    """A file path from the config.  Only a string is one: ``open`` takes an
    int as a file descriptor."""
    path = _require(cfg, key)
    if not isinstance(path, str):
        raise ConfigError(f"config {key!r} must be a file path, got {path!r}")
    return path


def _mapping(value) -> Mapping:
    if not isinstance(value, Mapping):
        raise TypeError("not an object")
    return value


def _list(value) -> list | tuple:
    if not isinstance(value, (list, tuple)):  # a string would be read char by char
        raise TypeError("not a list")
    return value


def load_household_distribution(path) -> dict[int, float]:
    """``size,probability`` CSV for residents per household."""
    out: dict[int, float] = {}
    for size, probability in read_csv(path, ("size", "probability")):
        if int(size) in out:
            raise ConfigError(f"{path}: duplicate size {size}")
        out[int(size)] = float(probability)
    if not out:
        raise ConfigError(f"{path}: empty distribution")
    return out


def run_experiment(
    config: Mapping | str | Path,
    out_dir: str | Path,
    seed: int | None = None,
    trials: int | None = None,
    trace: bool = False,
    jobs: int = 1,
) -> list[TrialReport]:
    """Run the configured Monte Carlo experiment and write its CSV tables.

    Outputs are byte-deterministic for a fixed config and seed list; wall
    times go to run_meta.json only.  ``seed``/``trials`` override the config.
    Trials are independent (each owns its streams and audit state), so
    ``jobs > 1`` runs them in a process pool; reports merge in trial order
    and the outputs stay identical to a sequential run.
    """
    if not isinstance(config, Mapping):
        with open(config, encoding="utf-8") as f:
            config = json.load(f)
    if not isinstance(config, Mapping):
        raise ConfigError("config must be a JSON object")
    kind = _require(config, "audit")
    if kind not in AUDIT_KINDS:
        raise ConfigError(f"audit kind must be one of {AUDIT_KINDS}, got {kind!r}")
    trials = trials if trials is not None else _read(config, "trials", as_int, 10)
    if trials <= 0:
        raise ConfigError("trials must be positive")
    seeds = config.get("seeds")
    if seeds is None:
        base = seed if seed is not None else _read(config, "seed", as_int, 0)
        seeds = [base + i for i in range(trials)]
    else:
        seeds = _read(config, "seeds", lambda v: [as_int(s) for s in _list(v)])[:trials]
        if len(seeds) < trials:
            raise ConfigError("seed list is shorter than the trial count")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    if kind == "census":
        reports = _run_census_experiment(config, seeds, out_dir)
    else:
        reports = _run_election_experiment(config, kind, seeds, out_dir, trace, jobs)
    meta = {
        "config": _jsonable(config),
        "seeds": seeds,
        "wall_time_seconds": time.perf_counter() - started,
    }
    with open(out_dir / "run_meta.json", "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=2)
    return reports


def _jsonable(obj):
    if isinstance(obj, Mapping):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Path):
        return str(obj)
    return obj


def load_election_inputs(contest_path, knesset_path=None):
    """The contest CSV and, when a path is given, the Knesset config, which
    must name the contest's parties."""
    contest, tally = load_contest_csv(contest_path)
    knesset = None
    if knesset_path:
        knesset = load_knesset_config(knesset_path)
        missing = set(knesset.parties) ^ {bt.name for bt in contest.parties}
        if missing:
            raise ConfigError(f"contest and knesset config disagree on parties: {sorted(missing)}")
    return contest, tally, knesset


def load_declared_sizes(path) -> dict[str, int]:
    """``batch_id,declared_size`` CSV used to pad short batches."""
    out: dict[str, int] = {}
    for bid, size in read_csv(path, ("batch_id", "declared_size")):
        if bid in out:
            raise ConfigError(f"{path}: duplicate batch {bid!r}")
        out[bid] = int(size)
    return out


def _trial_batches(config: Mapping, contest, tally, data_rng) -> BatchMatrix:
    """The trial's batches, loaded from a batch CSV or dealt from the true tally."""
    batches_spec = _require(config, "batches")
    if isinstance(batches_spec, str):
        return batch_matrix(load_batches_csv(batches_spec))
    batches_spec = _read(config, "batches", _mapping)
    if "file" in batches_spec:
        declared = batches_spec.get("declared_sizes")
        sizes = load_declared_sizes(_path(batches_spec, "declared_sizes")) if declared else None
        return batch_matrix(load_batches_csv(_path(batches_spec, "file"), declared_sizes=sizes))
    gen = _read(batches_spec, "generate", _mapping, {})
    sizes = _read(gen, "sizes", lambda v: v if v is None else [as_int(x) for x in v])
    size_range = _read(gen, "size_range", lambda v: tuple(map(as_int, v)), (250, 550))
    return deal_matrix(tally, data_rng, sizes=sizes, size_range=size_range)


def _election_trial(args) -> TrialReport:
    (kind, config, contest, truth_tally, knesset, alpha, delta, error_model, weaken,
     trial_seed, trace_path) = args
    t0 = time.perf_counter()
    data_rng, audit_seed = trial_rngs(trial_seed)
    m = _trial_batches(config, contest, truth_tally, data_rng)
    if error_model.kind == "ballot_misread":
        m = inject_misreads(m, error_model, data_rng)
    reported = m.combined(m.reported)
    if knesset is not None:
        reported_seats = allocate_seats(knesset, reported)
        assertions = generate_assertions(knesset, reported, reported_seats, weaken)
    else:
        assertions = plurality_assertions(contest, reported)
    margins = {a.label: assertion_margin(a, reported) for a in assertions}

    trace_hook = None
    trace_file = None
    if trace_path is not None:
        trace_file = open(trace_path, "w", newline="", encoding="utf-8")
        writer = csv.writer(trace_file)
        writer.writerow(["step", "assertion", "T", "mu", "eta", "u"])

        def trace_hook(s, lbl, T, mu, eta, u, _w=writer):
            _w.writerow([s, lbl, repr(T), repr(mu), repr(eta), repr(u)])

    try:
        outcome = run_election_trial(kind, m, assertions, alpha, delta, audit_seed, trace_hook)
    finally:
        if trace_file:
            trace_file.close()
    per_assertion = {
        r.label: {
            "margin": margins.get(r.label),
            "ballots_examined": r.examined,
            "batches_examined": r.batches_examined,
            "approved": r.approved,
        }
        for r in outcome.assertions
    }
    return TrialReport(
        seed=trial_seed,
        audit=kind,
        approved=outcome.approved,
        full_count=outcome.full_count,
        ballots_examined=outcome.ballots_examined,
        total_ballots=outcome.total_ballots,
        per_assertion=per_assertion,
        wall_time=time.perf_counter() - t0,
    )


def _run_election_experiment(config, kind, seeds, out_dir, trace, jobs=1) -> list[TrialReport]:
    contest, truth_tally, knesset = load_election_inputs(
        _path(config, "contest"), _path(config, "knesset") if config.get("knesset") else None
    )
    alpha = _read(config, "alpha", as_float, 0.05)
    delta = _read(config, "delta", as_float, 1e-10)
    error_model = _read(config, "error_model", lambda v: ErrorModel(**(v or {"kind": "none"})))
    weaken = _read(config, "weaken", lambda v: [tuple(map(str, pair)) for pair in v], [])

    tasks = [
        (
            kind,
            dict(config),
            contest,
            truth_tally,
            knesset,
            alpha,
            delta,
            error_model,
            weaken,
            trial_seed,
            (out_dir / f"trace_trial{trial_idx}.csv") if trace else None,
        )
        for trial_idx, trial_seed in enumerate(seeds)
    ]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_election_trial, tasks))
    else:
        reports = [_election_trial(t) for t in tasks]
    _write_election_csvs(reports, out_dir)
    return reports


def _write_election_csvs(reports: list[TrialReport], out_dir: Path) -> None:
    with open(out_dir / "results.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(
            [
                "trial",
                "seed",
                "assertion",
                "margin",
                "margin_pct",
                "ballots_examined",
                "pct_ballots",
                "batches_examined",
                "approved",
            ]
        )
        for i, rep in enumerate(reports):
            for label in sorted(rep.per_assertion):
                row = rep.per_assertion[label]
                margin = row["margin"]
                w.writerow(
                    [
                        i,
                        rep.seed,
                        label,
                        margin,
                        _pct(margin, rep.total_ballots),
                        row["ballots_examined"],
                        _pct(row["ballots_examined"], rep.total_ballots),
                        row["batches_examined"] if row["batches_examined"] is not None else "",
                        int(row["approved"]),
                    ]
                )
    stats = assertion_stats(reports) if len(reports) >= 2 else []
    with open(out_dir / "summary.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["assertion", "margin", "mean_ballots", "std_ballots", "mean_pct_ballots"])
        for row in stats:
            w.writerow(row)


def _pct(x, total):
    if x is None or not total:
        return ""
    return repr(round(100.0 * x / total, 6))


def assertion_stats(reports: Sequence[TrialReport]) -> list[list]:
    """Per-assertion mean and sample standard deviation of ballots examined."""
    if len(reports) < 2:
        raise ValueError("need at least 2 trials for spread statistics")
    labels = sorted({lbl for rep in reports for lbl in rep.per_assertion})
    rows = []
    for lbl in labels:
        examined = [rep.per_assertion[lbl]["ballots_examined"] for rep in reports]
        margin = reports[0].per_assertion[lbl]["margin"]
        mean = statistics.fmean(examined)
        std = statistics.stdev(examined)
        total = reports[0].total_ballots
        rows.append([lbl, margin, repr(mean), repr(std), _pct(mean, total)])
    return rows


def _run_census_experiment(config, seeds, out_dir) -> list[TrialReport]:
    pops, constants = census_mod.load_districts_csv(_path(config, "districts"))
    _require(config, "representatives")
    representatives = _read(config, "representatives", as_int)
    g_max = _read(config, "g_max", as_int, census_mod.DEFAULT_GMAX)
    divisor = _read(config, "divisor", str, "dhondt")
    delta = _read(config, "delta", as_float, census_mod.DEFAULT_DELTA)
    disagree = _read(config, "disagreement_rate", as_float, 0.0)
    if not 0 <= disagree <= 1:
        raise ConfigError(f"config 'disagreement_rate' {disagree!r} is not in [0, 1]")

    generate = isinstance(_require(config, "households"), Mapping)
    fractions = _read(config, "sample_fractions", lambda v: [as_float(x) for x in _list(v or [])])
    if generate and not fractions:
        raise ConfigError("generated census runs need sample_fractions")
    if not generate and fractions:
        raise ConfigError("sample_fractions only apply to generated households; "
                          "a household file fixes the surveyed set")
    fractions = fractions or [None]
    for frac in fractions:
        if frac is not None and not 0 < frac <= 1:
            raise ConfigError(f"sample fraction {frac!r} is not in (0, 1]")

    if generate:
        gen = _read(config["households"], "generate", _mapping)
        dist = load_household_distribution(_path(gen, "household_dist"))
        nonresponse = _read(gen, "nonresponse", as_float, 0.0)
    else:
        model = census_mod.CensusModel(tuple(pops), representatives, constants, g_max, divisor)
        data = census_mod.CensusData.from_households(
            model, census_mod.load_households_csv(_path(config, "households"))
        )

    reports: list[TrialReport] = []
    rows: list[list] = []
    for trial_idx, trial_seed in enumerate(seeds):
        t0 = time.perf_counter()
        data_rng, audit_seed = trial_rngs(trial_seed)
        if generate:
            data = census_mod.generate_census_population(
                pops, dist, nonresponse, data_rng, representatives, g_max, divisor
            )
            if disagree > 0:
                data = _inject_agreeing_disagreement(data, disagree, dist, data_rng)
        n = data.n
        for frac in fractions:
            mask = None
            if frac is not None:
                mask = np.zeros(n, dtype=bool)
                mask[data_rng.choice(n, size=max(1, round(frac * n)), replace=False)] = True
            cfg = AuditConfig(alpha=1.0, seed=audit_seed)
            outcome = census_mod.census_rla(data, cfg, delta=delta, surveyed_mask=mask)
            frac_label = repr(frac) if frac is not None else "file"
            rows.append([frac_label, trial_idx, trial_seed, repr(outcome.risk_limit)])
            reports.append(
                TrialReport(
                    seed=trial_seed,
                    audit="census",
                    approved=outcome.risk_limit < 1.0,
                    full_count=False,
                    ballots_examined=outcome.households_examined,
                    total_ballots=n,
                    per_assertion={
                        f"{a}->{b}": {"risk": r} for (a, b), r in sorted(outcome.pair_risks.items())
                    },
                    risk_limit=outcome.risk_limit,
                    sample_fraction=frac,
                    wall_time=time.perf_counter() - t0,
                )
            )
    with open(out_dir / "risk_curve.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["sample_fraction", "trial", "seed", "risk_limit"])
        w.writerows(rows)
    with open(out_dir / "risk_summary.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["sample_fraction", "median_risk_limit"])
        for frac in fractions:
            risks = [r.risk_limit for r in reports if r.sample_fraction == frac]
            frac_label = repr(frac) if frac is not None else "file"
            w.writerow([frac_label, repr(statistics.median(risks))])
    return reports


def _inject_agreeing_disagreement(data, rate, dist, rng, max_tries: int = 50):
    """Disagreement injection conditioned on an unchanged full-survey allocation.

    The efficiency question is only meaningful when the full survey would
    confirm the census, so redraws that flip a seat are rejected and retried.
    """
    base, pops = census_mod.apportion(data.model, data.census_pops), data.census_pops
    for _ in range(max_tries):
        candidate = census_mod.inject_survey_disagreement(data, rate, dist, rng)
        at = np.flatnonzero(candidate.pes != data.cen)  # only these move a total off the census
        shift = np.bincount(data.state_idx[at], candidate.pes[at] - data.cen[at], len(pops))
        totals = {s: c + int(d) for (s, c), d in zip(pops.items(), shift)}
        if census_mod.apportion(data.model, totals) == base:
            return candidate
    raise ValueError(
        "could not inject survey disagreement without changing the seat allocation; "
        "margins are too tight for this disagreement rate"
    )


def write_census_outcome_csv(outcome: census_mod.CensusOutcome, stream) -> None:
    """Pairwise risk limits and an overall line, to a text stream opened with ``newline=""``."""
    w = csv.writer(stream)
    w.writerow(["pair_s1", "pair_s2", "risk_limit"])
    for (s1, s2), risk in sorted(outcome.pair_risks.items()):
        w.writerow([s1, s2, repr(risk)])
    w.writerow(["OVERALL", "", repr(outcome.risk_limit)])
