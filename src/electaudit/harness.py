"""Data generation, error injection, Monte Carlo orchestration and reporting.

Randomness contract: trial i takes seed ``seed + i``, from the root ``seed``
of the config (default 0) or of the caller.  Within a trial, stream 0 of that seed
generates data and stream 1 drives the audit's sampling, so two audit methods
run on the same trial see identical batches and identical draw randomness;
comparisons between them are paired by construction.

:func:`run_experiment` reads the config once, before any trial, into one
inputs tuple per audit kind; a key the kind does not read is an error.  One
trial loop maps the kind's ``(inputs, trial_idx, seed) -> list[TrialReport]``
over the seeds, in a process pool when ``jobs > 1``, into the kind's writer.

An election trial deals (:func:`deal_matrix`) or takes the batch file,
read once over the contest's types straight into one
:class:`electaudit.core.BatchMatrix` (:func:`electaudit.batchcomp.load_batches_csv`),
and injects misreads into all its rows at once (:func:`inject_misreads`).
The same matrix goes to whichever audit runs, which reads the reported
tally as the column sum.  :func:`deal_batches` and
:func:`inject_ballot_errors` make the same draws and return ``BatchRecord``
lists.  Its margins are each assertion's integer row over the reported
column sums (:func:`electaudit.knesset.assertion_margin`).  A batch file
must sum to the contest CSV's reported votes.  A census trial generates its
households or takes the household file, read once straight into columns
(:func:`electaudit.census.load_households_csv`), audits it with its audit
seed alone, and writes ``risk_curve.csv``, ``pair_risks.csv`` and
``risk_summary.csv``.  A :class:`TrialReport` holds no timing: the run's
wall time goes to ``run_meta.json``.
"""

from __future__ import annotations

import csv
import json
import statistics
import time
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import census as census_mod
from .alpha import DEFAULT_DELTA, AuditConfig, AuditOutcome, alpha_audit, alpha_batch_audit
from .batchcomp import batchcomp_audit, load_batches_csv
from .core import Assorter, BatchMatrix, BatchRecord, Contest, Tally, batch_matrix
from .core import ConfigError, as_float, as_int, check_int64_total, check_keys, load_contest_csv
from .core import plurality_assorter, read_csv
from .knesset import KnessetContest, assertion_margin, generate_assertions
from .knesset import load_knesset_config
from .randomness import make_rng

AUDIT_KINDS = ("alpha", "alpha_batch", "batchcomp", "census")
DEFAULT_SIZE_RANGE = (250, 550)  # ballots per dealt batch, min and max
_INJECT_TRIES = 50  # disagreement draws before a census trial gives up


@dataclass(frozen=True)
class ErrorModel:
    """How the reported count deviates from the truth.

    ``ballot_misread``: each ballot is independently misread with probability
    ``p_misread``; a misread ballot is recorded invalid with probability
    ``p_invalid``, otherwise credited to a party drawn uniformly at random.
    A census run has no error model: its config's ``disagreement_rate`` sets
    the survey's disagreement.
    """

    kind: str = "none"
    p_misread: float = 0.0
    p_invalid: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "ballot_misread"):
            raise ValueError(
                f"unknown error model {self.kind!r}: an election run takes 'none' or "
                "'ballot_misread'; a census run sets survey disagreement by 'disagreement_rate'"
            )
        for name in ("p_misread", "p_invalid"):
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


def trial_rngs(seed: int) -> tuple[np.random.Generator, tuple[int, int]]:
    """(data generator, audit seed) for one trial; see the module docstring."""
    data_rng = make_rng((seed, 0))
    return data_rng, (seed, 1)


def deal_matrix(
    truth: Tally,
    rng,
    sizes: Sequence[int] | None = None,
    size_range: tuple[int, int] = DEFAULT_SIZE_RANGE,
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
    check_batch_rule(n, sizes, size_range)
    deck = np.repeat(np.arange(len(types)), [truth.get(bt) for bt in types])
    rng.shuffle(deck)
    if sizes is None:
        lo, hi = size_range
        sizes = []
        left = n
        while left > hi:
            # cap at left - lo so the remainder always stays partitionable
            take = min(int(rng.integers(lo, hi + 1)), left - lo)
            sizes.append(take)
            left -= take
        sizes.append(left)
    sizes = np.array(sizes, dtype=np.int64)
    k = len(types)
    cells = np.repeat(np.arange(0, len(sizes) * k, k), sizes)
    cells += deck
    counts = np.bincount(cells, minlength=len(sizes) * k).reshape(len(sizes), k)
    return BatchMatrix(types, counts, counts, sizes)


def check_batch_rule(n: int, sizes: Sequence[int] | None, size_range: Sequence[int]) -> None:
    """A ValueError unless :func:`deal_matrix` can deal ``n`` ballots into
    positive ``sizes`` summing to ``n``, or into batches drawn from ``size_range``."""
    if sizes is not None:
        if sum(sizes) != n:
            raise ValueError(f"batch sizes sum to {sum(sizes)}, expected {n}")
        if any(s <= 0 for s in sizes):
            raise ValueError("batch sizes must be positive")
        return
    if len(size_range) != 2:
        raise ValueError(f"batch size range {tuple(size_range)} is not (min, max)")
    lo, hi = size_range
    if lo < 1:
        raise ValueError(f"batch size range {tuple(size_range)} must start at 1 or more")
    if hi < 2 * lo:
        raise ValueError("size range too narrow: need max >= 2 * min to always partition")
    if n < lo:
        raise ValueError(f"{n} ballots cannot fill a batch of at least {lo}")


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
    size_range: tuple[int, int] = DEFAULT_SIZE_RANGE,
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


def _check_weaken(knesset: KnessetContest | None, weaken) -> None:
    if weaken and knesset is None:
        raise ConfigError("weaken applies only to a Knesset contest")


def election_assertions(
    contest: Contest,
    knesset: KnessetContest | None,
    reported: Tally,
    weaken: Sequence[tuple[str, str]] = (),
) -> list[Assorter]:
    """The assertion set of an election: the Knesset set certifying the
    allocation of ``reported``, which is computed once, or the plurality set
    when ``knesset`` is None."""
    _check_weaken(knesset, weaken)
    if knesset is None:
        return plurality_assertions(contest, reported)
    return generate_assertions(knesset, reported, None, weaken)


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
        raise ConfigError(f"config {key!r} is malformed: {value!r} ({exc})") from exc


def _path(cfg: Mapping, key: str) -> str:
    """A file path from the config.  Only a string is one: ``open`` takes an
    int as a file descriptor."""
    path = _require(cfg, key)
    if not isinstance(path, str):
        raise ConfigError(f"config {key!r} must be a file path, got {path!r}")
    return path


def _error_model(value) -> ErrorModel:
    """A config's ``error_model`` object, its kind checked before its other keys."""
    fields = dict(_mapping(value or {}))
    return replace(ErrorModel(fields.pop("kind", "none")), **fields)


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
    numbers = {"size": int, "probability": float}
    for size, probability in read_csv(path, ("size", "probability"), numbers):
        if size in out:
            raise ConfigError(f"{path}: duplicate size {size}")
        out[size] = probability
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

    Outputs are byte-deterministic for a fixed config and root seed; wall
    times go to run_meta.json only.  ``seed``/``trials`` override the config,
    and trial i takes seed ``seed + i``.  Trials
    are independent (each owns its streams and audit state), so ``jobs > 1``
    runs them in a process pool; reports merge in trial order and the outputs
    stay identical to a sequential run.  ``trace`` applies to election audits.
    """
    if not isinstance(config, Mapping):
        with open(config, encoding="utf-8") as f:
            config = json.load(f)
    if not isinstance(config, Mapping):
        raise ConfigError("config must be a JSON object")
    kind = _require(config, "audit")
    if kind not in AUDIT_KINDS:
        raise ConfigError(f"audit kind must be one of {AUDIT_KINDS}, got {kind!r}")
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs!r}")
    trials = trials if trials is not None else _read(config, "trials", as_int, 10)
    if trials <= 0:
        raise ConfigError("trials must be positive")
    base = seed if seed is not None else _read(config, "seed", as_int, 0)
    if base < 0:  # numpy's seeding would reject it only once a trial runs
        raise ConfigError(f"root 'seed' must be non-negative, got {base}")
    seeds = [base + i for i in range(trials)]
    out_dir = Path(out_dir)

    started = time.perf_counter()
    if kind == "census":
        if trace:
            raise ConfigError("trace applies only to election audits")
        inputs, trial, write = _census_inputs(config), _census_trial, _write_census_csvs
    else:
        inputs = _election_inputs(config, kind, out_dir if trace else None)
        trial, write = _election_trial, _write_election_csvs
    out_dir.mkdir(parents=True, exist_ok=True)
    args = ([inputs] * len(seeds), range(len(seeds)), seeds)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_trial = list(pool.map(trial, *args))
    else:
        per_trial = list(map(trial, *args))
    reports = [rep for trial_reports in per_trial for rep in trial_reports]
    write(reports, out_dir)
    meta = {"config": dict(config), "seeds": seeds,
            "wall_time_seconds": time.perf_counter() - started}
    with open(out_dir / "run_meta.json", "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=2, default=str)  # a Path value is written as its string
    return reports


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
    for bid, size in read_csv(path, ("batch_id", "declared_size"), {"declared_size": int}):
        if bid in out:
            raise ConfigError(f"{path}: duplicate batch {bid!r}")
        out[bid] = size
    return out


RUN_KEYS = ("audit", "trials", "seed")  # read for every audit kind


# An election experiment's config, read once for all its trials.  ``batches``
# is the loaded BatchMatrix or the dealing rule (sizes, size_range).
ElectionInputs = namedtuple("ElectionInputs", "kind contest tally knesset alpha delta "
                            "error_model weaken batches trace_dir")


def _election_inputs(config: Mapping, kind: str, trace_dir: Path | None) -> ElectionInputs:
    check_keys(config, RUN_KEYS + ("contest", "knesset", "batches", "alpha", "delta",
                                   "error_model", "weaken"), "config")
    knesset_path = config.get("knesset") and _path(config, "knesset")
    contest, tally, knesset = load_election_inputs(_path(config, "contest"), knesset_path)
    alpha = _read(config, "alpha", as_float, 0.05)
    delta = _read(config, "delta", as_float, DEFAULT_DELTA)
    error_model = _read(config, "error_model", _error_model)
    weaken = _read(config, "weaken", lambda v: [tuple(map(str, pair)) for pair in v], [])
    _check_weaken(knesset, weaken)
    return ElectionInputs(kind, contest, tally, knesset, alpha, delta, error_model, weaken,
                          _batch_source(config, contest, tally), trace_dir)


def _batch_source(config: Mapping, contest: Contest, tally: Tally) -> BatchMatrix | tuple:
    """The batches of a batch CSV over ``contest``'s types, whose padded reported
    counts must sum to ``tally``, or the rule dealing its ballots into batches."""
    _require(config, "batches")
    spec = _read(config, "batches", _mapping)
    if "file" in spec:
        check_keys(spec, ("file", "declared_sizes"), "config 'batches'")
        declared = spec.get("declared_sizes") and load_declared_sizes(_path(spec, "declared_sizes"))
        m = load_batches_csv(_path(spec, "file"), contest, declared)
        for bt, total in zip(m.types, m.reported.sum(axis=0).tolist()):
            if total != tally.get(bt):
                raise ConfigError(f"{spec['file']}: reported {bt.name!r} votes sum to {total}, "
                                  f"not the contest's {tally.get(bt)}")
        return m
    check_keys(spec, ("generate",), "config 'batches'")
    gen = _read(spec, "generate", _mapping, {})
    check_keys(gen, ("sizes", "size_range"), "config 'batches.generate'")
    sizes = _read(gen, "sizes", lambda v: v if v is None else [as_int(x) for x in v])
    size_range = _read(gen, "size_range", lambda v: tuple(map(as_int, v)), DEFAULT_SIZE_RANGE)
    check_batch_rule(tally.total, sizes, size_range)
    return sizes, size_range


@contextmanager
def _trace_hook(trace_dir: Path | None, trial_idx: int):
    """A kernel trace hook writing the trial's trace CSV; None without a directory."""
    if trace_dir is None:
        yield None
        return
    with open(trace_dir / f"trace_trial{trial_idx}.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["step", "assertion", "T", "mu", "eta", "u"])
        yield lambda step, label, *state: w.writerow([step, label, *map(repr, state)])


def _election_trial(inputs: ElectionInputs, trial_idx: int, trial_seed: int) -> list[TrialReport]:
    data_rng, audit_seed = trial_rngs(trial_seed)
    m = inputs.batches
    if not isinstance(m, BatchMatrix):
        m = deal_matrix(inputs.tally, data_rng, *m)
    if inputs.error_model.kind == "ballot_misread":
        m = inject_misreads(m, inputs.error_model, data_rng)
    reported = m.combined(m.reported)
    assertions = election_assertions(inputs.contest, inputs.knesset, reported, inputs.weaken)
    margins = {a.label: assertion_margin(a, reported) for a in assertions}
    with _trace_hook(inputs.trace_dir, trial_idx) as hook:
        outcome = run_election_trial(inputs.kind, m, assertions, inputs.alpha, inputs.delta,
                                     audit_seed, hook)
    per_assertion = {
        r.label: {"margin": margins.get(r.label), "ballots_examined": r.examined,
                  "batches_examined": r.batches_examined, "approved": r.approved}
        for r in outcome.assertions
    }
    return [TrialReport(trial_seed, inputs.kind, outcome.approved, outcome.full_count,
                        outcome.ballots_examined, outcome.total_ballots, per_assertion)]


def _write_election_csvs(reports: list[TrialReport], out_dir: Path) -> None:
    with open(out_dir / "results.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["trial", "seed", "assertion", "margin", "margin_pct", "ballots_examined",
                    "pct_ballots", "batches_examined", "approved"])
        for i, rep in enumerate(reports):
            for label in sorted(rep.per_assertion):
                row = rep.per_assertion[label]
                margin, examined = row["margin"], row["ballots_examined"]
                batches = row["batches_examined"]
                w.writerow([i, rep.seed, label, margin, _pct(margin, rep.total_ballots), examined,
                            _pct(examined, rep.total_ballots), "" if batches is None else batches,
                            int(row["approved"])])
    stats = assertion_stats(reports) if len(reports) >= 2 else []
    with open(out_dir / "summary.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["assertion", "margin", "mean_ballots", "std_ballots", "mean_pct_ballots"])
        w.writerows(stats)


def _pct(x, total):
    if x is None or not total:
        return ""
    return repr(round(100.0 * x / total, 6))


def assertion_stats(reports: Sequence[TrialReport]) -> list[list]:
    """Per-assertion mean and sample std of ballots examined over the trials
    that carry the assertion, which a party near the threshold may not, with
    the first one's margin; the std is blank when only one trial carries it."""
    if len(reports) < 2:
        raise ValueError("need at least 2 trials for spread statistics")
    labels = sorted({lbl for rep in reports for lbl in rep.per_assertion})
    rows = []
    for lbl in labels:
        carrying = [rep for rep in reports if lbl in rep.per_assertion]
        examined = [rep.per_assertion[lbl]["ballots_examined"] for rep in carrying]
        margin = carrying[0].per_assertion[lbl]["margin"]
        mean = statistics.fmean(examined)
        std = repr(statistics.stdev(examined)) if len(examined) >= 2 else ""
        rows.append([lbl, margin, repr(mean), std, _pct(mean, carrying[0].total_ballots)])
    return rows


# A census experiment's config, read once for all its trials.  ``households``
# is the loaded CensusData or the generation rule; ``fractions`` is [None] for
# a household file, which fixes the surveyed set.
CensusInputs = namedtuple("CensusInputs", "households delta disagreement_rate fractions")


def _census_inputs(config: Mapping) -> CensusInputs:
    if "error_model" in config:
        raise ConfigError("a census run takes no 'error_model'; set 'disagreement_rate'")
    check_keys(config, RUN_KEYS + ("districts", "representatives", "g_max", "divisor", "delta",
                                   "disagreement_rate", "households", "sample_fractions"), "config")
    pops, constants = census_mod.load_districts_csv(_path(config, "districts"))
    _require(config, "representatives")
    representatives = _read(config, "representatives", as_int)
    g_max = _read(config, "g_max", as_int, census_mod.DEFAULT_GMAX)
    divisor = _read(config, "divisor", str, "dhondt")
    delta = _read(config, "delta", as_float, DEFAULT_DELTA)
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
    if not generate and disagree:
        raise ConfigError("config 'disagreement_rate' only applies to generated households; "
                          "a household file carries its own survey counts")
    fractions = fractions or [None]
    for i, frac in enumerate(fractions):
        if frac is not None and not 0 < frac <= 1:
            raise ConfigError(f"sample fraction {frac!r} is not in (0, 1]")
        if frac in fractions[:i]:
            raise ConfigError(f"sample fraction {frac!r} is listed twice")

    if generate:
        check_keys(config["households"], ("generate",), "config 'households'")
        gen = _read(config["households"], "generate", _mapping)
        check_keys(gen, ("household_dist", "nonresponse"), "config 'households.generate'")
        dist = load_household_distribution(_path(gen, "household_dist"))
        nonresponse = _read(gen, "nonresponse", as_float, 0.0)
        households = (pops, dist, nonresponse, representatives, g_max, divisor)
    else:
        model = census_mod.CensusModel(tuple(pops), representatives, constants, g_max, divisor)
        households = census_mod.load_households_csv(_path(config, "households"), model)
    return CensusInputs(households, delta, disagree, fractions)


def _census_trial(inputs: CensusInputs, trial_idx: int, trial_seed: int) -> list[TrialReport]:
    """One census trial: one report per sample fraction, each its own survey draw."""
    data_rng, audit_seed = trial_rngs(trial_seed)
    data = inputs.households
    if not isinstance(data, census_mod.CensusData):
        pops, dist, nonresponse, representatives, g_max, divisor = data
        data = census_mod.generate_census_population(pops, dist, nonresponse, data_rng,
                                                     representatives, g_max, divisor)
        if inputs.disagreement_rate > 0:
            data = _inject_agreeing_disagreement(data, inputs.disagreement_rate, dist, data_rng)
    n = data.n
    reports = []
    for frac in inputs.fractions:
        mask = None
        if frac is not None:
            mask = np.zeros(n, dtype=bool)
            mask[data_rng.choice(n, size=max(1, round(frac * n)), replace=False)] = True
        outcome = census_mod.census_rla(data, audit_seed, delta=inputs.delta, surveyed_mask=mask)
        pairs = {f"{a}->{b}": {"risk": r} for (a, b), r in sorted(outcome.pair_risks.items())}
        reports.append(TrialReport(trial_seed, "census", outcome.risk_limit < 1.0, False,
                                   outcome.households_examined, n, pairs, outcome.risk_limit,
                                   frac))
    return reports


def _write_census_csvs(reports: list[TrialReport], out_dir: Path) -> None:
    fractions = list(dict.fromkeys(rep.sample_fraction for rep in reports))
    label = lambda frac: repr(frac) if frac is not None else "file"
    with open(out_dir / "risk_curve.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["sample_fraction", "trial", "seed", "risk_limit"])
        w.writerows([label(rep.sample_fraction), i // len(fractions), rep.seed,
                     repr(rep.risk_limit)] for i, rep in enumerate(reports))
    with open(out_dir / "pair_risks.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["sample_fraction", "trial", "seed", "pair", "risk_limit"])
        w.writerows([label(rep.sample_fraction), i // len(fractions), rep.seed, pair,
                     repr(r["risk"])]
                    for i, rep in enumerate(reports) for pair, r in rep.per_assertion.items())
    with open(out_dir / "risk_summary.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["sample_fraction", "median_risk_limit"])
        for frac in fractions:
            risks = [rep.risk_limit for rep in reports if rep.sample_fraction == frac]
            w.writerow([label(frac), repr(statistics.median(risks))])


def _inject_agreeing_disagreement(data, rate, dist, rng):
    """Disagreement injection conditioned on an unchanged full-survey allocation.

    The efficiency question is only meaningful when the full survey would
    confirm the census, so redraws that flip a seat are rejected and retried.
    """
    base, pops = census_mod.apportion(data.model, data.census_pops), data.census_pops
    for _ in range(_INJECT_TRIES):
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
