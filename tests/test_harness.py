import csv
import hashlib
import json
import math
import re
import statistics
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from electaudit import census as census_mod
from electaudit import harness
from electaudit.alpha import combined_reported
from electaudit.batchcomp import load_batches_csv
from electaudit.census import (
    census_rla,
    generate_census_population,
    inject_survey_disagreement,
)
from electaudit.core import Contest, batch_matrix
from electaudit.knesset import load_knesset_config
from electaudit.harness import (
    ConfigError,
    ErrorModel,
    TrialReport,
    _inject_agreeing_disagreement,
    assertion_stats,
    deal_batches,
    deal_matrix,
    inject_ballot_errors,
    inject_misreads,
    load_household_distribution,
    run_experiment,
    trial_rngs,
)
from electaudit.randomness import make_rng

from .helpers import (
    deal_batches_reference,
    household_files,
    inject_agreeing_disagreement_reference,
)


@pytest.fixture
def abc():
    return Contest.from_party_names(["A", "B", "C"])


def test_error_model_validation():
    with pytest.raises(ValueError):
        ErrorModel(kind="gremlins")
    with pytest.raises(ValueError):
        ErrorModel(kind="ballot_misread", p_misread=1.5)


def test_deal_batches_partitions_exactly(abc):
    tally = abc.tally({"A": 5000, "B": 3000, "C": 1500, "__invalid__": 500})
    rng = make_rng(1)
    batches = deal_batches(tally, rng)
    assert sum(b.size for b in batches) == 10000
    assert all(250 <= b.size <= 550 for b in batches)
    m = batch_matrix(batches)
    assert m.combined(m.truth).counts == tally.counts
    assert combined_reported(batches).counts == tally.counts


def test_deal_batches_explicit_sizes(abc):
    tally = abc.tally({"A": 600, "B": 400})
    batches = deal_batches(tally, make_rng(2), sizes=[500, 300, 200])
    assert [b.size for b in batches] == [500, 300, 200]
    with pytest.raises(ValueError):
        deal_batches(tally, make_rng(2), sizes=[500, 300])


@pytest.mark.parametrize("size_range", [(-10, 0), (0, 10)])
def test_deal_batches_rejects_size_range_below_one(abc, size_range):
    """(-10, 0) used to loop forever and (0, hi) to deal an empty batch."""
    tally = abc.tally({"A": 60, "B": 40})
    with pytest.raises(ValueError, match="must start at 1 or more"):
        deal_batches(tally, make_rng(2), size_range=size_range)


@st.composite
def deal_cases(draw):
    """A tally over 1 to 4 parties, some of them with no votes, dealt by
    explicit sizes or by a size range, and a misread model."""
    names = [f"P{i}" for i in range(draw(st.integers(1, 4)))] + ["__invalid__"]
    counts = draw(st.lists(st.just(0) | st.integers(0, 3000), min_size=len(names), max_size=len(names)))
    counts[0] += 1
    tally = Contest.from_party_names(names[:-1]).tally(dict(zip(names, counts)))
    sizes, size_range = None, (250, 550)
    if draw(st.booleans()):
        cuts = sorted(draw(st.sets(st.integers(1, tally.total - 1), max_size=20))) if tally.total > 1 else []
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [tally.total])]
    else:
        lo = draw(st.integers(1, 300))
        size_range = (lo, 2 * lo + draw(st.integers(0, 300)))
    p_misread = draw(st.sampled_from([0.0, 0.02, 0.5, 1.0]))
    p_invalid = draw(st.sampled_from([0.0, 0.2, 1.0]))
    model = ErrorModel(kind="ballot_misread", p_misread=p_misread, p_invalid=p_invalid)
    return tally, sizes, size_range, model, draw(st.integers(0, 2**32))


@given(deal_cases())
@settings(max_examples=150, deadline=None)
def test_matrix_dealer_matches_tally_reference(case):
    """Dealing on the count matrix gives the counts of the per-batch ``Tally``
    reference and leaves the generator in the same state; the batch-list
    view returns the reference's batches."""
    tally, sizes, size_range, _, seed = case
    rng, ref_rng = make_rng(seed), make_rng(seed)
    try:
        want = deal_batches_reference(tally, ref_rng, sizes, size_range)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            deal_matrix(tally, rng, sizes, size_range)
        return
    m = deal_matrix(tally, rng, sizes, size_range)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    ref = batch_matrix(want)
    assert m.types == ref.types
    for got, expected in ((m.reported, ref.reported), (m.truth, ref.truth), (m.sizes, ref.sizes)):
        assert got.dtype == np.int64 and np.array_equal(got, expected)
    assert deal_batches(tally, make_rng(seed), sizes, size_range) == want


@given(deal_cases())
@settings(max_examples=100, deadline=None)
def test_inject_ballot_errors_is_a_view_of_inject_misreads(case):
    """From one seed, the batch-list injector reports the matrix injector's
    counts; both leave the truth and every batch total as they were."""
    tally, sizes, size_range, model, seed = case
    try:
        batches = deal_batches(tally, make_rng(seed), sizes, size_range)
    except ValueError:
        return
    m = batch_matrix(batches)
    misread = inject_misreads(m, model, make_rng((seed, 1)))
    out = inject_ballot_errors(batches, model, make_rng((seed, 1)))
    assert misread.reported.dtype == np.int64
    assert np.array_equal(batch_matrix(out).reported, misread.reported)
    assert np.array_equal(misread.truth, m.truth) and [b.truth for b in out] == [b.truth for b in batches]
    assert np.array_equal(misread.reported.sum(axis=1), m.sizes)


def test_inject_misreads_cell_means_match_closed_form(abc):
    """A batch of size s with t ballots of a type reports t (1 - p) of it,
    plus p p_invalid s if the type is invalid, or p (1 - p_invalid) s / 3 if
    it is one of the 3 parties.  Over 4,000 injections every cell's mean lies
    within 4.5 standard errors of that, and every batch keeps its total."""
    m = deal_matrix(abc.tally({"A": 600, "B": 300, "C": 80, "__invalid__": 20}), make_rng(0), sizes=[500, 400, 100])
    p, p_invalid = 0.3, 0.25
    model = ErrorModel(kind="ballot_misread", p_misread=p, p_invalid=p_invalid)
    runs = np.array([inject_misreads(m, model, make_rng((7, r))).reported for r in range(4000)])
    assert (runs.sum(axis=2) == m.sizes).all()
    invalid = [bt.is_invalid for bt in m.types]
    expected = m.truth * (1 - p) + np.where(invalid, p * p_invalid, p * (1 - p_invalid) / 3) * m.sizes[:, None]
    se = runs.std(axis=0, ddof=1) / math.sqrt(len(runs))
    assert (np.abs(runs.mean(axis=0) - expected) <= 4.5 * se).all()


def test_inject_no_misreads_is_identity(abc):
    tally = abc.tally({"A": 300, "B": 200})
    batches = deal_batches(tally, make_rng(3), sizes=[250, 250])
    out = inject_ballot_errors(batches, ErrorModel(kind="ballot_misread", p_misread=0.0), make_rng(4))
    for before, after in zip(batches, out):
        assert before.reported.counts == after.reported.counts


def test_inject_everything_invalid(abc):
    tally = abc.tally({"A": 300, "B": 200})
    batches = deal_batches(tally, make_rng(3), sizes=[250, 250])
    out = inject_ballot_errors(
        batches, ErrorModel(kind="ballot_misread", p_misread=1.0, p_invalid=1.0), make_rng(4)
    )
    for b in out:
        assert b.reported.get(abc.invalid) == b.size
        assert b.truth.counts == dict(b.truth.counts)  # truth untouched


def test_inject_misreads_without_a_party_is_rejected():
    """Misreads of an all-invalid contest have no party to land on."""
    m = deal_matrix(Contest.from_party_names([]).tally({"__invalid__": 100}), make_rng(0), sizes=[100])
    with pytest.raises(ValueError, match="a party to land on"):
        inject_misreads(m, ErrorModel(kind="ballot_misread", p_misread=0.1), make_rng(1))


def test_misreads_of_a_batch_file_land_on_every_contest_party(abc, tmp_path):
    """A batch file is read over the contest's types, so a misread ballot can
    land on a contest party the file omits, as on dealt batches."""
    p = tmp_path / "batches.csv"
    p.write_text("batch_id,party,reported_votes,true_votes\nb1,A,500,500\nb1,B,400,400\n")
    m = load_batches_csv(p, abc)
    out = inject_misreads(m, ErrorModel(kind="ballot_misread", p_misread=0.5), make_rng(0))
    assert out.reported[0, m.types.index(abc.by_name("C"))] > 0


def test_inject_preserves_batch_totals_and_rate(abc):
    tally = abc.tally({"A": 20000, "B": 15000, "C": 5000})
    batches = deal_batches(tally, make_rng(5), sizes=[400] * 100)
    model = ErrorModel(kind="ballot_misread", p_misread=0.01, p_invalid=0.1)
    out = inject_ballot_errors(batches, model, make_rng(6))
    n = 40000
    moved = 0
    for before, after in zip(batches, out):
        assert after.reported.total == before.size
        assert after.truth.counts == before.truth.counts
        moved += sum(
            abs(after.reported.get(bt) - before.truth.get(bt)) for bt in abc.ballot_types
        ) // 2
    # every misread ballot moves at most one unit of discrepancy; a misread
    # to a uniformly drawn party lands on its own party 1/3 of the time
    expect_hi = 0.01 * n
    sigma = math.sqrt(n * 0.01 * 0.99)
    assert moved <= expect_hi + 4 * sigma
    assert moved >= 0.5 * expect_hi - 4 * sigma


def test_assertion_stats_zero_spread():
    rows = {"x": {"margin": 5, "ballots_examined": 100, "batches_examined": 2, "approved": True}}
    reports = [
        TrialReport(0, "alpha", True, False, 100, 1000, rows),
        TrialReport(0, "alpha", True, False, 100, 1000, rows),
    ]
    stats = assertion_stats(reports)
    assert stats[0][0] == "x"
    assert float(stats[0][3]) == 0.0


def test_assertion_stats_hand_arithmetic():
    r1 = {"x": {"margin": 5, "ballots_examined": 100, "batches_examined": 1, "approved": True}}
    r2 = {"x": {"margin": 5, "ballots_examined": 140, "batches_examined": 2, "approved": True}}
    reports = [
        TrialReport(0, "alpha", True, False, 100, 1000, r1),
        TrialReport(1, "alpha", True, False, 140, 1000, r2),
    ]
    stats = assertion_stats(reports)
    assert float(stats[0][2]) == 120.0
    # sample standard deviation of {100, 140}
    assert float(stats[0][3]) == pytest.approx(40 / math.sqrt(2))


def test_assertion_stats_requires_two_trials():
    r = {"x": {"margin": 5, "ballots_examined": 100, "batches_examined": 1, "approved": True}}
    with pytest.raises(ValueError):
        assertion_stats([TrialReport(0, "alpha", True, False, 100, 1000, r)])


def _write_contest(tmp_path):
    p = tmp_path / "contest.csv"
    p.write_text("party,reported_votes\nA,5200\nB,4500\n__invalid__,300\n")
    return p


def test_run_experiment_deterministic(tmp_path):
    contest = _write_contest(tmp_path)
    config = {
        "audit": "batchcomp",
        "contest": str(contest),
        "batches": {"generate": {"sizes": [250] * 40}},
        "alpha": 0.05,
        "trials": 2,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out1, out2 = tmp_path / "out1", tmp_path / "out2"
    run_experiment(cfg, out1, seed=9)
    run_experiment(cfg, out2, seed=9)
    for name in ("results.csv", "summary.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_experiment_seed_changes_results(tmp_path):
    contest = _write_contest(tmp_path)
    config = {
        "audit": "alpha",
        "contest": str(contest),
        "batches": {"generate": {"sizes": [500] * 20}},
        "alpha": 0.05,
        "trials": 2,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    run_experiment(cfg, tmp_path / "a", seed=1)
    run_experiment(cfg, tmp_path / "b", seed=2)
    assert (tmp_path / "a/results.csv").read_bytes() != (tmp_path / "b/results.csv").read_bytes()


def test_run_experiment_error_model_and_knesset(tmp_path):
    contest = tmp_path / "contest.csv"
    contest.write_text(
        "party,reported_votes\nP1,5200\nP2,3200\nP3,1300\n__invalid__,300\n"
    )
    kcfg = tmp_path / "knesset.json"
    kcfg.write_text(json.dumps({"parties": ["P1", "P2", "P3"], "seats": 12}))
    config = {
        "audit": "batchcomp",
        "contest": str(contest),
        "knesset": str(kcfg),
        "batches": {"generate": {"sizes": [250] * 40}},
        "error_model": {"kind": "ballot_misread", "p_misread": 0.01, "p_invalid": 0.1},
        "alpha": 0.05,
        "trials": 2,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    reports = run_experiment(cfg, tmp_path / "out", seed=3)
    assert len(reports) == 2
    labels = set(reports[0].per_assertion)
    assert any(lbl.startswith("above-threshold:") for lbl in labels)
    assert any(lbl.startswith("no-seat-move:") for lbl in labels)


def test_run_experiment_trace(tmp_path):
    contest = _write_contest(tmp_path)
    config = {
        "audit": "batchcomp",
        "contest": str(contest),
        "batches": {"generate": {"sizes": [500] * 20}},
        "alpha": 0.05,
        "trials": 1,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    run_experiment(cfg, tmp_path / "out", seed=4, trace=True)
    trace = tmp_path / "out/trace_trial0.csv"
    with open(trace) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["step", "assertion", "T", "mu", "eta", "u"]
    assert len(rows) > 1
    # mu < eta < u on every traced step
    for row in rows[1:]:
        mu, eta, u = float(row[3]), float(row[4]), float(row[5])
        assert mu < eta < u


def test_run_experiment_rejects_bad_kind(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"audit": "rummage"}))
    with pytest.raises(ConfigError):
        run_experiment(cfg, tmp_path / "out")


def test_census_experiment_outputs(tmp_path):
    districts = tmp_path / "d.csv"
    districts.write_text(
        "district,population,c_constant\nX,41000,0\nY,23000,0\nZ,17000,0\n"
    )
    dist = tmp_path / "sizes.csv"
    dist.write_text("size,probability\n1,0.4\n2,0.4\n3,0.2\n")
    config = {
        "audit": "census",
        "districts": str(districts),
        "representatives": 8,
        "households": {"generate": {"household_dist": str(dist), "nonresponse": 0.01}},
        "sample_fractions": [0.05, 0.1],
        "trials": 2,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    reports = run_experiment(cfg, tmp_path / "out", seed=0)
    assert len(reports) == 4
    with open(tmp_path / "out/risk_summary.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["sample_fraction", "median_risk_limit"]
    medians = [float(r[1]) for r in rows[1:]]
    assert medians[1] <= medians[0]  # more survey, never worse


def _disagreeing_census_config(tmp_path):
    """Three generated districts with 2% survey disagreement, two trials."""
    districts = tmp_path / "d.csv"
    districts.write_text(
        "district,population,c_constant\nX,41000,0\nY,23000,0\nZ,17000,0\n"
    )
    dist = tmp_path / "sizes.csv"
    dist.write_text("size,probability\n1,0.4\n2,0.4\n3,0.2\n")
    return {
        "audit": "census",
        "districts": str(districts),
        "representatives": 8,
        "households": {"generate": {"household_dist": str(dist), "nonresponse": 0.01}},
        "sample_fractions": [0.05, 0.1],
        "disagreement_rate": 0.02,
        "trials": 2,
    }


def test_census_outputs_write_plain_floats(tmp_path):
    """With survey disagreement, every risk cell of the census tables is a
    plain float literal equal to the value the audit reported."""
    config = _disagreeing_census_config(tmp_path)
    reports = run_experiment(config, tmp_path / "out", seed=0)
    with open(tmp_path / "out/risk_curve.csv") as f:
        curve = [float(row["risk_limit"]) for row in csv.DictReader(f)]
    assert curve == [r.risk_limit for r in reports]
    assert any(0 < risk < 1 for risk in curve)
    with open(tmp_path / "out/risk_summary.csv") as f:
        medians = [float(row["median_risk_limit"]) for row in csv.DictReader(f)]
    assert medians == [
        statistics.median(r.risk_limit for r in reports if r.sample_fraction == frac)
        for frac in config["sample_fractions"]
    ]

    with open(tmp_path / "out/pair_risks.csv") as f:
        rows = [(row["trial"], row["pair"], float(row["risk_limit"])) for row in csv.DictReader(f)]
    assert rows == [(str(i // 2), pair, r["risk"]) for i, rep in enumerate(reports)
                    for pair, r in rep.per_assertion.items()]
    assert any(0 < risk < 1 for _, _, risk in rows)


def test_agreeing_injection_matches_full_recount():
    """A tight seat boundary (Y's second quotient 1001.5 against Z's 997)
    rejects some candidates; checking each by the census totals plus the
    moved households keeps every result and the generator position of a
    full recount of the survey totals."""
    pops, sizes = {"X": 3011, "Y": 2003, "Z": 997}, {0: 0.1, 1: 0.3, 2: 0.3, 3: 0.2, 5: 0.1}
    tries = 0
    for seed in range(10):
        data = generate_census_population(pops, sizes, 0.0, make_rng(seed), 5)
        for max_tries in (1, 50):
            got_rng, want_rng = make_rng(100 + seed), make_rng(100 + seed)
            with mock.patch.object(census_mod, "inject_survey_disagreement",
                                   wraps=census_mod.inject_survey_disagreement) as drawn, \
                    mock.patch.object(harness, "_INJECT_TRIES", max_tries):
                try:
                    got = _inject_agreeing_disagreement(data, 0.05, sizes, got_rng).pes
                except ValueError:
                    got = None
            tries += drawn.call_count
            try:
                want = inject_agreeing_disagreement_reference(
                    data, 0.05, sizes, want_rng, max_tries
                ).pes
            except ValueError:
                want = None
            assert (got is None) == (want is None)
            assert got is None or got.tobytes() == want.tobytes()
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert tries > 20  # candidates were rejected


@pytest.mark.parametrize("bad", [0.0, 1.5])
def test_census_sample_fraction_outside_unit_interval_rejected(tmp_path, bad):
    config = _disagreeing_census_config(tmp_path)
    config["sample_fractions"] = [0.05, bad]
    with pytest.raises(ConfigError, match=f"sample fraction {bad!r} is not in"):
        run_experiment(config, tmp_path / "out", seed=0)


def test_census_output_bytes_pinned(tmp_path):
    """The census tables of a fixed config and seed stay byte-for-byte the
    same: generation, disagreement injection, survey selection and the audit
    draws must keep their random calls and their order.  The bytes were
    re-recorded when the audit's household draw became one shuffle, and
    again when generation and injection began to draw counts."""
    run_experiment(_disagreeing_census_config(tmp_path), tmp_path / "out", seed=0)
    assert (tmp_path / "out/risk_curve.csv").read_bytes() == (
        b"sample_fraction,trial,seed,risk_limit\r\n"
        b"0.05,0,0,0.20056333449536645\r\n"
        b"0.1,0,0,0.025459756443893092\r\n"
        b"0.05,1,1,0.12498687763956294\r\n"
        b"0.1,1,1,0.023517776731690105\r\n"
    )
    assert (tmp_path / "out/risk_summary.csv").read_bytes() == (
        b"sample_fraction,median_risk_limit\r\n"
        b"0.05,0.1627751060674647\r\n"
        b"0.1,0.0244887665877916\r\n"
    )


PINNED = Path(__file__).resolve().parent / "pinned"
KNESSET_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "batchcomp_knesset.json"
CENSUS_CONFIG = KNESSET_CONFIG.parent / "census_cyprus.json"


def test_census_trial_builds_each_pair_test_once(tmp_path, monkeypatch):
    """On the shipped census config, a trial builds each pair's constants once
    for its six sample fractions: 20 builds, not 120."""
    monkeypatch.chdir(CENSUS_CONFIG.parent.parent)
    config = json.loads(CENSUS_CONFIG.read_text())
    with mock.patch.object(census_mod, "census_pair", wraps=census_mod.census_pair) as built:
        reports = run_experiment(config, tmp_path, seed=0, trials=2)
    assert len(reports) == 2 * len(config["sample_fractions"]) == 12
    assert len(reports[0].per_assertion) == 20
    assert built.call_count == 2 * 20


def test_census_trial_memory_is_bounded(tmp_path, monkeypatch):
    """One shipped-config census trial at one sample fraction stays below a
    5 MB traced peak: its households are held in five one-byte columns, and
    no household-length int64, intp or float64 array is built on the way
    (the state totals go a slice at a time, generation draws per-size counts
    and injection only its hits' positions and sizes)."""
    import tracemalloc

    monkeypatch.chdir(CENSUS_CONFIG.parent.parent)
    config = dict(json.loads(CENSUS_CONFIG.read_text()), trials=1,
                  sample_fractions=[0.0087], disagreement_rate=0.005)
    with mock.patch.object(census_mod, "census_rla", wraps=census_mod.census_rla) as audited:
        tracemalloc.start()
        try:
            run_experiment(config, tmp_path, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    data = audited.call_args.args[0]
    columns = (data.state_idx, data.cen, data.pes, data.has_pes, data.in_frame)
    assert data.pes is not data.cen and data.n > 300_000
    assert sum(col.nbytes for col in columns) == 5 * data.n
    assert peak < 5e6, f"traced peak {peak / 1e6:.2f} MB"


def test_election_output_bytes_pinned(tmp_path, monkeypatch):
    """The election tables of a fixed config and seed stay byte-for-byte the
    same: batch dealing, error injection, assertion generation, the draw order
    and every assorter value must keep their random calls and their floats.

    ``knesset_alpha_*`` were written by the exact ``Fraction`` implementation,
    so they also join the integer tally matrices to it end to end.  The other
    files were re-recorded when the batch draw order and the misread
    injection became vectorised draws of the same laws."""
    monkeypatch.chdir(KNESSET_CONFIG.parent.parent)
    knesset = json.loads(KNESSET_CONFIG.read_text())
    for name, config in (("knesset", knesset), ("plurality", _pinned_plurality(tmp_path))):
        for kind in ("alpha", "alpha_batch", "batchcomp"):
            out = tmp_path / f"{name}_{kind}"
            run_experiment(dict(config, audit=kind), out, seed=0, trials=2)
            for table in ("results", "summary"):
                expected = (PINNED / f"{name}_{kind}_{table}.csv").read_bytes()
                assert (out / f"{table}.csv").read_bytes() == expected, (name, kind, table)


def _pinned_plurality(tmp_path) -> dict:
    """The plurality config of the pinned election tables."""
    contest = tmp_path / "contest.csv"
    contest.write_text("party,reported_votes\nA,5200\nB,4500\nC,1300\n__invalid__,300\n")
    return {
        "contest": str(contest),
        "batches": {"generate": {"size_range": [250, 550]}},
        "error_model": {"kind": "ballot_misread", "p_misread": 0.02, "p_invalid": 0.2},
        "alpha": 0.05,
    }


TRACE_SHA256 = {
    "alpha": "5b9b84cbf8605e9aec3f4dd942ccffc60ef329cf36c3a833707a5c173903efd1",
    "alpha_batch": "dfeac5ee8806009441decba80e344e4040586a20d3789829273bedd9d9b56a6e",
    "batchcomp": "a402faf7a844a77a9a66829b5ba6af51d8b7c38063e28c279ee22597be0beb03",
}


def test_election_trace_bytes_pinned(tmp_path):
    """The first trial's trace of the pinned plurality run stays byte-for-byte
    the same for each audit: every T, mu, eta and u the kernel was tested
    with, so a changed reported mean, bound or draw value shows even where
    the tables do not."""
    config = _pinned_plurality(tmp_path)
    for kind, digest in TRACE_SHA256.items():
        out = tmp_path / kind
        run_experiment(dict(config, audit=kind), out, seed=0, trials=2, trace=True)
        trace = (out / "trace_trial0.csv").read_bytes()
        assert hashlib.sha256(trace).hexdigest() == digest, kind


KNESSET_TRACE_SHA256 = {
    ("alpha_batch", "trace_trial0"): "9cf57bd1bd13d31e47eeea536cee1afbb9049323228c0eff46d3150010e86cd9",
    ("alpha_batch", "results"): "6c98c7fea652693a7641b737f7f3631da6fa1f700e144710cff334b6925374d8",
    ("batchcomp", "trace_trial0"): "7713cec71ccdd26aa90f636ff440ff3bfd88c61bf01951f06a5851e74ebda9a9",
    ("batchcomp", "results"): "bac26583999655aea34f37e98bff972b792e6d183816f7d7dca4ca37cf86c4b6",
}


def test_knesset_trace_bytes_pinned(tmp_path, monkeypatch):
    """The shipped Knesset config's first trial, traced, for both batch
    audits: weighted batches, the fixed-eta rule, Knesset labels and the
    full count.  (Its ballot-level trace has about 2M rows and is left out.)"""
    monkeypatch.chdir(KNESSET_CONFIG.parent.parent)
    config = json.loads(KNESSET_CONFIG.read_text())
    for (kind, table), digest in KNESSET_TRACE_SHA256.items():
        out = tmp_path / kind
        if not out.exists():
            run_experiment(dict(config, audit=kind), out, seed=0, trials=1, trace=True)
        data = (out / f"{table}.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, (kind, table)


def test_accurate_batchcomp_spread_small(tmp_path):
    """Accurate tallies over varied batch sizes: per-assertion spread of
    ballots examined stays small relative to the mean across 10 trials."""
    contest = tmp_path / "contest.csv"
    contest.write_text("party,reported_votes\nA,10300\nB,9200\n__invalid__,500\n")
    config = {
        "audit": "batchcomp",
        "contest": str(contest),
        "batches": {"generate": {"size_range": [250, 550]}},
        "alpha": 0.05,
        "trials": 10,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    reports = run_experiment(cfg, tmp_path / "out", seed=17)
    for row in assertion_stats(reports):
        mean, std = float(row[2]), float(row[3])
        assert std <= 0.15 * mean, row


def test_parallel_trials_match_sequential(tmp_path):
    contest = _write_contest(tmp_path)
    config = {
        "audit": "batchcomp",
        "contest": str(contest),
        "batches": {"generate": {"sizes": [250] * 40}},
        "alpha": 0.05,
        "trials": 4,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    census = dict(_disagreeing_census_config(tmp_path), trials=3)
    for name, source, tables in (
        ("election", cfg, ("results.csv", "summary.csv")),
        ("census", census, ("risk_curve.csv", "risk_summary.csv")),
    ):
        run_experiment(source, tmp_path / name / "seq", seed=2, jobs=1)
        run_experiment(source, tmp_path / name / "par", seed=2, jobs=2)
        for table in tables:
            seq, par = (tmp_path / name / run / table for run in ("seq", "par"))
            assert seq.read_bytes() == par.read_bytes(), (name, table)


def test_batches_file_with_declared_sizes(tmp_path):
    contest = tmp_path / "contest.csv"
    contest.write_text("party,reported_votes\nA,13\nB,12\n__invalid__,5\n")
    batches = tmp_path / "batches.csv"
    batches.write_text(
        "batch_id,party,reported_votes,true_votes\n"
        "b1,A,10,10\nb1,B,5,5\n"
        "b2,A,3,3\nb2,B,7,7\n"
    )
    declared = tmp_path / "declared.csv"
    declared.write_text("batch_id,declared_size\nb1,20\nb2,10\n")
    config = {
        "audit": "batchcomp",
        "contest": str(contest),
        "batches": {"file": str(batches), "declared_sizes": str(declared)},
        "alpha": 0.5,
        "trials": 2,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    reports = run_experiment(cfg, tmp_path / "out", seed=0)
    assert reports[0].total_ballots == 30  # b1 padded from 15 up to 20


def test_batch_file_is_loaded_once_per_run(tmp_path):
    """Every trial audits the same batch file, so a run reads it once, not
    once per trial."""
    contest = tmp_path / "contest.csv"
    contest.write_text("party,reported_votes\nA,13\nB,12\n__invalid__,5\n")
    batches = tmp_path / "batches.csv"
    batches.write_text(
        "batch_id,party,reported_votes,true_votes\n"
        "b1,A,10,10\nb1,B,5,5\nb1,__invalid__,5,5\n"
        "b2,A,3,3\nb2,B,7,7\n"
    )
    config = {"audit": "batchcomp", "contest": str(contest), "batches": {"file": str(batches)},
              "alpha": 0.5}
    with mock.patch.object(harness, "load_batches_csv", wraps=harness.load_batches_csv) as loaded:
        reports = run_experiment(config, tmp_path / "out", seed=0, trials=5)
    assert len(reports) == 5 and loaded.call_count == 1


@pytest.mark.parametrize("generate", [
    {"size_range": [-10, 0]},
    {"size_range": [100, 150]},  # too narrow to always partition
    {"size_range": [100]},
    {"size_range": [20000, 50000]},  # more than the ballots
    {"sizes": [5000, 4000]},  # 1,000 ballots short of the contest
    {"sizes": [10001, -1]},
])
def test_malformed_batch_rule_raises_before_dealing(tmp_path, generate):
    """A dealing rule that cannot partition the contest is an error when the
    config is read, before the first trial deals a batch."""
    config = {"audit": "batchcomp", "contest": str(_write_contest(tmp_path)),
              "batches": {"generate": generate}, "trials": 2}
    with mock.patch.object(harness, "deal_matrix", wraps=harness.deal_matrix) as dealt:
        with pytest.raises(ValueError, match="batch|size range"):
            run_experiment(config, tmp_path / "out", seed=0)
    assert dealt.call_count == 0
    assert not (tmp_path / "out").exists()


def test_shipped_configs_load(monkeypatch):
    """Every experiment and Knesset config shipped in ``configs/`` and
    ``bench/inputs/`` reads through the package's readers, so a renamed key
    or a typo fails here rather than in a run or the benchmark."""
    root = Path(__file__).resolve().parent.parent
    monkeypatch.chdir(root)
    kinds = []
    for path in sorted([*root.glob("configs/*.json"), *root.glob("bench/inputs/*.json")]):
        config = json.loads(path.read_text(encoding="utf-8"))
        if "audit" not in config:
            load_knesset_config(path)
            kinds.append("knesset")
        elif config["audit"] == "census":
            harness._census_inputs(config)
            kinds.append("census")
        else:
            harness._election_inputs(config, config["audit"], None)
            kinds.append("election")
    assert sorted(set(kinds)) == ["census", "election", "knesset"] and len(kinds) >= 5


def test_trial_rngs_streams_differ():
    data_rng, audit_seed = trial_rngs(7)
    other = make_rng(audit_seed)
    assert data_rng.integers(0, 10**9) != other.integers(0, 10**9)


def test_household_distribution_loader(tmp_path):
    p = tmp_path / "dist.csv"
    p.write_text("size,probability\n1,0.5\n2,0.5\n")
    assert load_household_distribution(p) == {1: 0.5, 2: 0.5}
    bad = tmp_path / "bad.csv"
    bad.write_text("sz,p\n1,0.5\n")
    with pytest.raises(ConfigError):
        load_household_distribution(bad)


def test_summary_covers_each_assertion_over_the_trials_that_carry_it(tmp_path):
    """Misreads put P3 above the threshold in one trial and below it in two,
    so the trials certify different assertion sets; each summary row is
    taken over the trials that carry its label."""
    contest = tmp_path / "contest.csv"
    contest.write_text("party,reported_votes\nP1,5200\nP2,4424\nP3,276\n__invalid__,100\n")
    kcfg = tmp_path / "knesset.json"
    kcfg.write_text(json.dumps({"parties": ["P1", "P2", "P3"], "seats": 120}))
    config = {
        "audit": "batchcomp",
        "contest": str(contest),
        "knesset": str(kcfg),
        "batches": {"generate": {"sizes": [250] * 40}},
        "error_model": {"kind": "ballot_misread", "p_misread": 0.02, "p_invalid": 0.3},
        "trials": 3,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    reports = run_experiment(cfg, out, seed=0)
    carrying = {
        lbl: [rep.per_assertion[lbl] for rep in reports if lbl in rep.per_assertion]
        for rep in reports
        for lbl in rep.per_assertion
    }
    assert [len(carrying[f"{side}-threshold:P3"]) for side in ("above", "below")] == [1, 2]
    with open(out / "summary.csv", newline="") as f:
        rows = {r["assertion"]: r for r in csv.DictReader(f)}
    assert set(rows) == set(carrying)
    for lbl, runs in carrying.items():
        examined = [run["ballots_examined"] for run in runs]
        assert int(rows[lbl]["margin"]) == runs[0]["margin"]
        assert float(rows[lbl]["mean_ballots"]) == statistics.fmean(examined)
        std = rows[lbl]["std_ballots"]
        assert (float(std) == statistics.stdev(examined)) if len(runs) > 1 else std == ""
    assert (out / "run_meta.json").exists()


def _batch_file_config(tmp_path) -> dict:
    """A batch-file election: contest party D is absent from the file, batch
    p02 lacks a C row, p05's true total falls 3 short of its reported one,
    p01 and p08 are padded up to declared sizes, and p04/p09 overstate A.
    The contest's counts are the file's reported sums, padding included."""
    contest = tmp_path / "contest.csv"
    contest.write_text("party,reported_votes\nA,415\nB,306\nC,110\nD,0\n__invalid__,15\n")
    rows = ["batch_id,party,reported_votes,true_votes"]
    for i in range(12):
        a, b, c = 30 + 7 * i % 11, 22 + 5 * i % 9, 8 + 3 * i % 5
        shift = 2 if i in (4, 9) else 0
        rows += [f"p{i:02d},A,{a},{a - shift - 3 * (i == 5)}", f"p{i:02d},B,{b},{b + shift}"]
        if i != 2:
            rows.append(f"p{i:02d},C,{c},{c}")
        if i % 4 == 0:
            rows.append(f"p{i:02d},__invalid__,2,2")
    batches = tmp_path / "batches.csv"
    batches.write_text("\n".join(rows) + "\n")
    declared = tmp_path / "declared.csv"
    declared.write_text("batch_id,declared_size\np01,80\np08,75\n")
    return {"contest": str(contest), "batches": {"file": str(batches),
            "declared_sizes": str(declared)}, "alpha": 0.1}


BATCH_FILE_SHA256 = {
    ("alpha", "results"): "274b48ced8b31d3974a5916678ceca4b1cf85bed94cc479a9cbd3f697312162a",
    ("alpha", "summary"): "c7e09fd0ae61a2e2b1de5a23e2bf7285fd29f4642d3876c73da89b85d2c08e71",
    ("alpha_batch", "results"): "4176ff2f7fa305dd0466d393ddc89d15f7be63f129a2bc93accbba33342e7480",
    ("alpha_batch", "summary"): "99a32ba1d19859318f60a7e51ac5662fd4782c7d587a913a2ce7efe7443143da",
    ("batchcomp", "results"): "b48821c9a5be279c79458c16d5f288a5364fcb00f875135a179e04c251dfcad3",
    ("batchcomp", "summary"): "f077a8a05c2f82064f4599c56f626f730c8a69f229a49da70c643e914426987b",
    ("batchcomp", "trace_trial0"): "50235435bb1a89a0e7d4c4e56a22500295ae7c2f9e763de297751a76856c6cf3",
}


def test_batch_file_output_bytes_pinned(tmp_path):
    """A run on a batch file with declared sizes keeps its tables and its
    batchcomp trace byte-for-byte: the file reaches the audits as the same
    counts over the same type index."""
    config = _batch_file_config(tmp_path)
    for kind in ("alpha", "alpha_batch", "batchcomp"):
        out = tmp_path / kind
        run_experiment(dict(config, audit=kind), out, seed=0, trials=2, trace=kind == "batchcomp")
        for table in ("results", "summary") + (("trace_trial0",) if kind == "batchcomp" else ()):
            data = (out / f"{table}.csv").read_bytes()
            assert hashlib.sha256(data).hexdigest() == BATCH_FILE_SHA256[kind, table], (kind, table)


HOUSEHOLD_FILE_SHA256 = {
    "risk_curve": "c585d353197d6cf06b73a0251ef83ef9d0a22fa26f2759932a1e7cd0dcb42bcd",
}


def test_household_file_output_bytes_pinned(tmp_path):
    """``audit run`` on a household file keeps its risk table byte-for-byte."""
    districts, households = household_files(tmp_path)
    config = {"audit": "census", "districts": str(districts), "representatives": 5,
              "g_max": 6, "households": str(households), "trials": 2}
    run_experiment(config, tmp_path / "run", seed=0)
    path = tmp_path / "run/risk_curve.csv"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == HOUSEHOLD_FILE_SHA256["risk_curve"]
