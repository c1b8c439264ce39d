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
)
from electaudit.census import CensusPair
from electaudit.core import BatchRecord, Contest, assorter_mean, batch_matrix, plurality_assorter
from electaudit.harness import deal_matrix
from electaudit.randomness import make_rng

from .helpers import batchcomp_simplified_step, by_value, load_batches_reference

HALF = Fraction(1, 2)


@pytest.fixture
def ab():
    c = Contest.from_party_names(["A", "B"])
    return c, plurality_assorter(c.by_name("A"), c.by_name("B"), c)


def _batch(c, bid, rep, true, size=None):
    reported = c.tally(rep)
    truth = c.tally(true)
    return BatchRecord(bid, reported, truth, size or max(reported.total, truth.total))


def _load(tmp_path, c, rep, true, declared=None):
    """One batch ``x`` with the given reported and true counts, read from a CSV."""
    p = tmp_path / "batches.csv"
    rows = [f"x,{party},{rep[party]},{true[party]}" for party in rep]
    p.write_text("batch_id,party,reported_votes,true_votes\n" + "\n".join(rows) + "\n")
    return load_batches_csv(p, c, None if declared is None else {"x": declared})


def test_pad_short_truth(ab, tmp_path):
    c, _ = ab
    m = _load(tmp_path, c, {"A": 10, "B": 5}, {"A": 7, "B": 3}, declared=15)
    assert m.types == (c.by_name("A"), c.by_name("B"), c.invalid)
    assert m.truth.tolist() == [[7, 3, 5]] and m.reported.tolist() == [[10, 5, 0]]
    assert m.sizes.tolist() == [15]


def test_pad_identity_when_equal(ab, tmp_path):
    c, _ = ab
    m = _load(tmp_path, c, {"A": 5, "B": 5}, {"A": 4, "B": 6})
    assert m.reported.tolist() == [[5, 5, 0]] and m.truth.tolist() == [[4, 6, 0]]
    assert m.sizes.tolist() == [10]


def test_pad_both_sides(ab, tmp_path):
    c, _ = ab
    m = _load(tmp_path, c, {"A": 4, "B": 3}, {"A": 5, "B": 4}, declared=10)
    assert m.reported.tolist() == [[4, 3, 3]] and m.truth.tolist() == [[5, 4, 1]]


def test_pad_overflow(ab, tmp_path):
    c, _ = ab
    with pytest.raises(ValueError, match="batch overflow"):
        _load(tmp_path, c, {"A": 9, "B": 3}, {"A": 9, "B": 3}, declared=10)


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
    c, _ = ab
    m = load_batches_csv(p, c)
    assert len(m) == 2 and m.types == (c.by_name("A"), c.by_name("B"), c.invalid)
    # b2 true total is 9 against 10 reported: padded with one invalid ballot
    assert m.sizes.tolist() == [15, 10]
    assert m.truth.tolist() == [[9, 6, 0], [4, 5, 1]]
    declared = load_batches_csv(p, c, declared_sizes={"b1": 20})
    assert declared.sizes.tolist() == [20, 10]
    with pytest.raises(ValueError, match="batch overflow"):
        load_batches_csv(p, c, declared_sizes={"b1": 10})


LOAD_ERRORS = ("duplicate row", "negative count", "non-positive size", "batch overflow",
               "overflow the int64", "batch list is empty", "absent from the batch file")


@st.composite
def batch_files(draw):
    """A contest and a batch CSV over some of its types, with its declared
    sizes: rows missing, sometimes one repeated, a rare negative count, an
    all-invalid batch, a single batch, declared sizes at, above and below
    the totals, a rare declared size for a batch the file lacks, and rare
    counts of 2**62, two of which overflow int64."""
    contest = Contest.from_party_names([f"P{i}" for i in range(draw(st.integers(1, 3)))])
    names = [bt.name for bt in contest.ballot_types]
    count = st.integers(0, 40).map(lambda k: {39: 2**62, 40: -1}.get(k, k % 7))
    rows, declared = [], {}
    for b in range(draw(st.integers(0, 4))):
        batch = [(f"b{b}", party, draw(count), draw(count))
                 for party in draw(st.lists(st.sampled_from(names), min_size=1, unique=True))]
        if draw(st.integers(0, 9)) == 0:
            batch.append(batch[0][:2] + (1, 1))
        if draw(st.booleans()):
            totals = (sum(r[i] for r in batch) for i in (2, 3))
            declared[f"b{b}"] = max(totals) + draw(st.integers(-1, 4))
        rows += batch
    if draw(st.integers(0, 9)) == 0:
        declared["b9"] = draw(st.integers(1, 5))
    return contest, draw(st.permutations(rows)), declared


def _load_outcome(load, *args):
    try:
        return by_value(load(*args))
    except ValueError as exc:
        return next((kind for kind in LOAD_ERRORS if kind in str(exc)), str(exc))


@given(batch_files())
@settings(max_examples=300, deadline=None)
def test_load_batches_csv_equals_the_record_reference(tmp_path_factory, case):
    """The batch file read straight into count matrices gives the types, counts
    and sizes of the padded-record reference, or the same error."""
    contest, rows, declared = case
    p = tmp_path_factory.mktemp("batches") / "batches.csv"
    p.write_text("batch_id,party,reported_votes,true_votes\n"
                 + "".join(",".join(map(str, r)) + "\n" for r in rows))
    got = _load_outcome(load_batches_csv, p, contest, declared)
    assert got == _load_outcome(load_batches_reference, p, contest, declared)
