import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from electaudit.alpha import AuditConfig, combined_reported, comparison_spec
from electaudit.batchcomp import (
    BatchAssorter,
    batch_assorter_value,
    batch_assorter_value_exact,
    batchcomp_audit,
    load_batches_csv,
    make_batch_assorter,
    pad_missing_ballots,
)
from electaudit.census import CensusPair
from electaudit.core import BatchRecord, Contest, assorter_mean, batch_matrix, plurality_assorter
from electaudit.harness import deal_matrix
from electaudit.randomness import make_rng

from .helpers import batchcomp_simplified_step

HALF = Fraction(1, 2)


@pytest.fixture
def ab():
    c = Contest.from_party_names(["A", "B"])
    return c, plurality_assorter(c.by_name("A"), c.by_name("B"), c)


def _batch(c, bid, rep, true, size=None):
    reported = c.tally(rep)
    truth = c.tally(true)
    return BatchRecord(bid, reported, truth, size or max(reported.total, truth.total))


def test_pad_short_truth(ab):
    c, _ = ab
    b = _batch(c, "x", {"A": 10, "B": 5}, {"A": 7, "B": 3}, size=15)
    p = pad_missing_ballots(b, 15)
    assert p.truth.get(c.invalid) == 5
    assert p.reported.total == p.truth.total == p.size == 15


def test_pad_identity_when_equal(ab):
    c, _ = ab
    b = _batch(c, "x", {"A": 5, "B": 5}, {"A": 4, "B": 6})
    p = pad_missing_ballots(b, 10)
    assert p.reported.counts == b.reported.counts
    assert p.truth.counts == b.truth.counts


def test_pad_both_sides(ab):
    c, _ = ab
    b = _batch(c, "x", {"A": 4, "B": 3}, {"A": 5, "B": 4}, size=10)
    p = pad_missing_ballots(b, 10)
    assert p.reported.get(c.invalid) == 3
    assert p.truth.get(c.invalid) == 1


def test_pad_overflow(ab):
    c, _ = ab
    b = _batch(c, "x", {"A": 9, "B": 3}, {"A": 9, "B": 3})
    with pytest.raises(ValueError, match="batch overflow"):
        pad_missing_ballots(b, 10)


def test_accurate_batches_share_one_value(ab):
    c, a = ab
    batches = [
        _batch(c, "b1", {"A": 70, "B": 30}, {"A": 70, "B": 30}),
        _batch(c, "b2", {"A": 40, "B": 60}, {"A": 40, "B": 60}),
        _batch(c, "b3", {"A": 55, "B": 40, "__invalid__": 5}, {"A": 55, "B": 40, "__invalid__": 5}),
    ]
    A = make_batch_assorter(a, batches)
    values = {batch_assorter_value_exact(A, b) for b in batches}
    assert len(values) == 1
    assert values.pop() == A.accurate_value


def test_known_accurate_value(ab):
    _, a = ab
    A = BatchAssorter(base=a, M=Fraction(1, 20), w=Fraction(3, 5), delta=1e-10)
    assert A.accurate_value == Fraction(6, 11)
    assert float(A.accurate_value) == pytest.approx(0.5454545454545454)


positive_fractions = st.fractions(min_value=Fraction(1, 10**12), max_value=10**6)


@given(positive_fractions, positive_fractions, st.floats(1e-12, 10.0) | st.sampled_from([1e-10]))
@settings(max_examples=300, deadline=None)
def test_comparison_spec_is_the_float_of_the_exact_start(M, gap, delta):
    """For w > M > 0, the comparison start is eta = float(1/2 + M/(2(w - M)))
    and u = float(1/2 + (M + delta)/(2(w - M))), the batch assorter's accurate
    value and bound and the census pair's agreement value and bound."""
    w = M + gap
    c = Contest.from_party_names(["A", "B"])
    A = BatchAssorter(plurality_assorter(c.by_name("A"), c.by_name("B"), c), M, w, delta)
    spec = comparison_spec("x", M, w, delta)
    U = float(HALF + (M + Fraction(delta)) / (2 * (w - M)))
    assert spec == ("x", float(A.accurate_value), U, True, float(A.accurate_value))
    pair = CensusPair("s1", "s2", 1, 0, 1, 1, 15, Fraction(1), M, w)
    u0 = float(Fraction(1, 2) + (pair.m + Fraction(delta)) / (2 * (pair.z - pair.m)))
    assert comparison_spec("s1->s2", pair.m, pair.z, delta)[1:3] == (float(pair.agree_value), u0)


def test_worst_batch_scores_zero(ab):
    c, a = ab
    # reported all-A in one batch makes w = 1; a true all-B batch then hits 0
    batches = [
        _batch(c, "good", {"A": 50, "B": 50}, {"A": 50, "B": 50}),
        _batch(c, "evil", {"A": 100}, {"B": 100}),
        _batch(c, "pad", {"A": 80, "B": 20}, {"A": 80, "B": 20}),
    ]
    A = make_batch_assorter(a, batches)
    assert A.w == 1
    assert batch_assorter_value_exact(A, batches[1]) == 0


def test_constructor_requires_positive_margin(ab):
    _, a = ab
    with pytest.raises(ValueError):
        BatchAssorter(base=a, M=Fraction(0), w=Fraction(3, 5), delta=1e-10)
    with pytest.raises(ValueError):
        BatchAssorter(base=a, M=Fraction(7, 10), w=Fraction(3, 5), delta=1e-10)


def test_sign_equivalence_over_random_partitions(ab):
    """Batch-assorter mean over all ballots crosses 1/2 with the base assorter."""
    c, a = ab
    rng = make_rng(21)
    for trial in range(200):
        n_batches = int(rng.integers(1, 6))
        batches = []
        for i in range(n_batches):
            size = int(rng.integers(1, 9))
            rep = {k: int(v) for k, v in zip(("A", "B", "__invalid__"), rng.multinomial(size, [0.45, 0.45, 0.1]))}
            true = {k: int(v) for k, v in zip(("A", "B", "__invalid__"), rng.multinomial(size, [0.45, 0.45, 0.1]))}
            batches.append(_batch(c, f"b{i}", rep, true, size))
        if sum(b.size for b in batches) > 40:
            continue
        overall_rep = combined_reported(batches)
        if assorter_mean(a, overall_rep) <= HALF:
            continue  # Batchcomp assumes a positive reported margin
        A = make_batch_assorter(a, batches)
        n = sum(b.size for b in batches)
        weighted = sum(batch_assorter_value_exact(A, b) * b.size for b in batches) / n
        m = batch_matrix(batches)
        base_mean = assorter_mean(a, m.combined(m.truth))
        assert (weighted > HALF) == (base_mean > HALF)


def test_size_weighted_mean_equals_union_value(ab):
    """Expected batch-assorter value over a set equals its value on the union."""
    c, a = ab
    rng = make_rng(31)
    for trial in range(100):
        batches = []
        for i in range(int(rng.integers(2, 6))):
            size = int(rng.integers(2, 30))
            rep = {k: int(v) for k, v in zip(("A", "B", "__invalid__"), rng.multinomial(size, [0.5, 0.4, 0.1]))}
            true = {k: int(v) for k, v in zip(("A", "B", "__invalid__"), rng.multinomial(size, [0.5, 0.4, 0.1]))}
            batches.append(_batch(c, f"b{i}", rep, true, size))
        if assorter_mean(a, combined_reported(batches)) <= HALF:
            continue
        A = make_batch_assorter(a, batches)
        n = sum(b.size for b in batches)
        weighted = sum(batch_assorter_value_exact(A, b) * b.size for b in batches) / n
        m = batch_matrix(batches)
        union = BatchRecord("union", m.combined(m.reported), m.combined(m.truth), n)
        assert weighted == batch_assorter_value_exact(A, union)


@given(
    st.integers(0, 20),
    st.integers(0, 20),
    st.integers(0, 5),
    st.integers(0, 20),
    st.integers(0, 20),
    st.integers(0, 5),
)
@settings(max_examples=120, deadline=None)
def test_batch_assorter_never_negative(ra, rb, ri, ta, tb, ti):
    """Non-negativity for any true tally and any reported tally up to w."""
    c = Contest.from_party_names(["A", "B"])
    a = plurality_assorter(c.by_name("A"), c.by_name("B"), c)
    size = ra + rb + ri
    if size == 0 or ta + tb + ti != size:
        return
    devil = BatchRecord(
        "d", c.tally({"A": ra, "B": rb, "__invalid__": ri}), c.tally({"A": ta, "B": tb, "__invalid__": ti}), size
    )
    anchor = BatchRecord("a", c.tally({"A": 30, "B": 10}), c.tally({"A": 30, "B": 10}), 40)
    batches = [anchor, devil]
    if assorter_mean(a, combined_reported(batches)) <= HALF:
        return
    A = make_batch_assorter(a, batches)
    assert batch_assorter_value_exact(A, devil) >= 0
    assert batch_assorter_value_exact(A, anchor) >= 0


def test_simplified_step():
    assert batchcomp_simplified_step(1.0, 0.5, 0.5) == 1.0
    assert batchcomp_simplified_step(5.0, 0.0, 0.5) == 0.0
    assert batchcomp_simplified_step(2.0, 0.6, 0.5) == pytest.approx(2.4)
    with pytest.raises(ValueError):
        batchcomp_simplified_step(1.0, 0.5, 0.0)


def test_single_batch_decides_after_one_sample(ab):
    c, a = ab
    t = c.tally({"A": 120, "B": 80})
    m = batch_matrix([BatchRecord("only", t, t, 200)])
    out = batchcomp_audit(m, [a], AuditConfig(alpha=0.05, seed=0))
    assert out.assertions[0].batches_examined == 1
    assert out.full_count and out.assertions[0].truly_satisfied


def test_accurate_audit_is_order_invariant(ab):
    c, a = ab
    rng = make_rng(7)
    tally = c.tally({"A": 2600, "B": 2400})
    batches = deal_matrix(tally, rng, sizes=[100] * 50)
    counts = {
        batchcomp_audit(batches, [a], AuditConfig(alpha=0.05, seed=s)).assertions[0].batches_examined
        for s in range(10)
    }
    assert len(counts) == 1


def test_wrong_winner_rarely_approved(ab):
    c, a = ab
    batches = []
    for i in range(10):
        true = c.tally({"A": 19, "B": 21})
        rep = c.tally({"A": 21, "B": 19}) if i < 5 else true
        batches.append(BatchRecord(f"b{i}", rep, true, 40))
    batches = batch_matrix(batches)
    trials = 400
    wrong = sum(
        batchcomp_audit(batches, [a], AuditConfig(alpha=0.05, seed=s)).approved
        for s in range(trials)
    )
    assert wrong / trials <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / trials)


def test_negative_reported_margin_flagged(ab):
    c, a = ab
    t_rep = c.tally({"A": 40, "B": 60})
    t_true = c.tally({"A": 60, "B": 40})
    m = batch_matrix([BatchRecord("b", t_rep, t_true, 100)])
    out = batchcomp_audit(m, [a], AuditConfig(alpha=0.05, seed=0))
    assert not out.assertions[0].approvable
    assert out.full_count
    assert out.assertions[0].truly_satisfied  # the full count knows the truth


def test_unpadded_batch_rejected(ab):
    c, a = ab
    bad = BatchRecord("b", c.tally({"A": 5}), c.tally({"A": 4}), 5)
    with pytest.raises(ValueError, match="not padded"):
        batchcomp_audit(batch_matrix([bad]), [a], AuditConfig(alpha=0.05, seed=0))


def test_load_batches_csv(tmp_path, ab):
    p = tmp_path / "batches.csv"
    p.write_text(
        "batch_id,party,reported_votes,true_votes\n"
        "b1,A,10,9\n"
        "b1,B,5,6\n"
        "b2,A,3,4\n"
        "b2,B,7,5\n"
    )
    batches = load_batches_csv(p)
    assert [b.id for b in batches] == ["b1", "b2"]
    assert batches[0].size == 15
    # b2 true total is 9 against 10 reported: padded with one invalid ballot
    assert batches[1].size == 10
    assert batches[1].truth.total == 10
    declared = load_batches_csv(p, declared_sizes={"b1": 20})
    assert declared[0].size == 20
    with pytest.raises(ValueError, match="batch overflow"):
        load_batches_csv(p, declared_sizes={"b1": 10})
