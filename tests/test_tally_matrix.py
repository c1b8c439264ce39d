"""The integer tally matrices against the exact ``Fraction`` references.

The audits compute assorter sums as integer matrix products and every float
as one correctly rounded quotient of two integers.  These tests hold each of
those floats to ``float`` of the exact reference with ``==``, including
counts large enough to push the products past 2**53 and 2**63.
"""

from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from electaudit import alpha as alpha_mod
from electaudit import batchcomp as batchcomp_mod
from electaudit import knesset as knesset_mod
from electaudit.alpha import (
    AssertionOutcome,
    AuditConfig,
    alpha_audit,
    alpha_batch_audit,
    alpha_init,
    comparison_spec,
    conclude_audit,
)
from electaudit.batchcomp import (
    batch_assorter_value_exact,
    batchcomp_audit,
    lift_assertions,
    make_batch_assorter,
)
from electaudit.core import (
    BatchRecord,
    Contest,
    Tally,
    assertion_rows,
    assorter_mean,
    batch_matrix,
    exact_matmul,
    exact_quotients,
    plurality_assorter,
)
from electaudit.harness import deal_matrix, election_assertions, load_election_inputs
from electaudit.knesset import (
    KnessetContest,
    allocate_seats,
    assertion_margin,
    generate_assertions,
)
from electaudit.randomness import make_rng

from .helpers import assorter_from_values, fraction_margin

HALF = Fraction(1, 2)
PARTIES = ("A", "B", "C", "D")
CONTEST = Contest.from_party_names(PARTIES)
# A, B and C clear the 3.25% threshold and D does not; no seat count from 31
# to 120 ties the allocation
KNESSET_REPORTED = {"A": 6011, "B": 3517, "C": 401, "D": 103, "__invalid__": 53}


def knesset_assertions(seats: int, weaken: bool):
    kc = KnessetContest(parties=PARTIES, seats=seats, threshold=Fraction(13, 400))
    reported = kc.ballot_contest().tally(KNESSET_REPORTED)
    return generate_assertions(
        kc, reported, allocate_seats(kc, reported), [("A", "B")] if weaken else []
    )


def plurality_assertions():
    by = CONTEST.by_name
    return [plurality_assorter(by(w), by(lo), CONTEST) for w, lo in (("A", "B"), ("C", "A"))]


def total(tallies) -> Tally:
    """Exact reference for a column sum: add the count dicts."""
    out: dict = {}
    for t in tallies:
        for bt, c in t.counts.items():
            out[bt] = out.get(bt, 0) + c
    return Tally(out)


@st.composite
def batch_lists(draw):
    """1 to 4 padded batches.  Counts are small, near 2**48 (past the 2**53
    quotient guard once scaled by an assorter numerator) or near 2**58 (past
    the 2**63 product guard); some types are absent, some batches all invalid."""
    scale = draw(st.sampled_from([40, 2**48, 2**58]))
    count = st.just(0) | st.integers(0, scale) | st.integers(scale // 2, scale)
    batches = []
    for i in range(draw(st.integers(1, 4))):
        sides = []
        for _ in range(2):
            counts = dict(zip(CONTEST.ballot_types, draw(st.lists(count, min_size=5, max_size=5))))
            if draw(st.booleans()):  # all-invalid batch
                counts = {bt: (c if bt.is_invalid else 0) for bt, c in counts.items()}
            sides.append(counts)
        size = max(1, *(sum(c.values()) for c in sides)) + draw(st.integers(0, 3))
        tallies = []
        for counts in sides:
            counts[CONTEST.invalid] += size - sum(counts.values())  # pad with invalid ballots
            if draw(st.booleans()):  # leave zero-count types out of the tally
                counts = {bt: c for bt, c in counts.items() if c}
            tallies.append(Tally(counts))
        batches.append(BatchRecord(f"b{i}", tallies[0], tallies[1], size))
    return batches


@given(
    batch_lists(),
    st.integers(31, 120),
    st.booleans(),
    st.sampled_from([1e-10, 0.25]),
)
@settings(max_examples=300, deadline=None)
def test_integer_path_matches_fraction_reference(batches, seats, weaken, delta):
    """Every batch mean, M, w, the comparison start and A(B) equals float of its exact Fraction,
    and so does every reported mean eta; the full count's verdicts are the
    exact ones."""
    assertions = plurality_assertions() + knesset_assertions(seats, weaken)
    m = batch_matrix(batches)
    for a in assertions:
        num, den = a.row(m.types)
        for counts, side in ((m.truth, "truth"), (m.reported, "reported")):
            exact = [float(assorter_mean(a, getattr(b, side))) for b in batches]
            means = exact_quotients(exact_matmul(counts, num), den, m.sizes)
            assert means.tolist() == exact, (a.label, side)

    reported = total(b.reported for b in batches)
    lifted, values = lift_assertions(assertions, m, delta)
    for a, A, row in zip(assertions, lifted, values):
        M = assorter_mean(a, reported) - HALF
        if M <= 0:
            assert A is None and not row.any()
            continue
        w = max(assorter_mean(a, b.reported) for b in batches)
        assert (A.M, A.w) == (M, w)
        spec = comparison_spec(a.label, A.M, A.w, delta)
        assert (spec.eta, spec.u) == (
            float(A.accurate_value), float(HALF + (M + Fraction(delta)) / (2 * (w - M)))
        )
        assert make_batch_assorter(a, batches, delta) == A
        assert row.tolist() == [float(batch_assorter_value_exact(A, b)) for b in batches]

    n = int(m.sizes.sum())
    for a in assertions:
        eta = float(assorter_mean(a, reported))
        if eta >= float(a.upper):  # no room for mu < eta < u
            with pytest.raises(ValueError, match="degenerate"):
                alpha_init([a], m)
        else:
            assert alpha_init([a], m)[0].eta == eta
    refused = [AssertionOutcome(a.label, True, False, n) for a in assertions]
    full_count = conclude_audit(refused, assertions, m).assertions
    truth = total(b.truth for b in batches)
    assert [r.truly_satisfied for r in full_count] == [
        assorter_mean(a, truth) > HALF for a in assertions
    ]


@st.composite
def value_maps(draw):
    """A non-negative ``Fraction`` value map over some contest types, its
    declared bound and a tally over its types.  Values may be zero, tiny,
    or so large that the stored numerators pass 2**63; the bound is the max
    value or looser."""
    types = draw(st.lists(st.sampled_from(CONTEST.ballot_types), min_size=1, unique=True))
    numerator = st.just(0) | st.integers(0, 9) | st.integers(2**63, 2**70)
    denominator = st.integers(1, 40) | st.integers(2**62, 2**66)
    values = {bt: Fraction(draw(numerator), draw(denominator)) for bt in types}
    top = max(values.values())
    upper = top + draw(st.sampled_from([0, Fraction(1, 3), 10**25]))
    counts = draw(st.lists(st.integers(0, 60), min_size=len(types), max_size=len(types)))
    counts[0] += 1  # at least one ballot
    return values, upper or Fraction(1), Tally(dict(zip(types, counts)))


@given(value_maps(), st.data())
@settings(max_examples=300, deadline=None)
def test_assorter_row_matches_its_fractions(case, data):
    """The stored integer row is the value map: ``value()`` returns the input,
    ``row`` over the own, a permuted or a subset type index gives the same
    rationals, and the margin, reported mean and full-count verdict read from
    it equal their ``Fraction`` references.  The constructor's errors keep
    their messages."""
    values, upper, truth = case
    a = assorter_from_values(values, upper, label="x")
    assert all(a.value(bt) == v for bt, v in values.items()) and a.upper == upper
    own, den = a.row(a.types)
    assert own is a.num and den == a.den
    assert a.num.dtype == (object if max(a.num.tolist()) >= 2**63 else np.int64)
    index = data.draw(st.lists(st.sampled_from(list(values)), unique=True))
    num, _ = a.row(index)
    assert [Fraction(x, den) for x in num.tolist()] == [values[bt] for bt in index]
    missing = [bt for bt in CONTEST.ballot_types if bt not in values]
    if missing:
        with pytest.raises(KeyError, match="assorter 'x' has no value for"):
            a.row(index + missing[:1])

    def margin(f):
        try:
            return f(a, truth)
        except ValueError as exc:  # no relabelling reaches 1/2
            return str(exc)

    assert margin(assertion_margin) == margin(fraction_margin)
    mean = assorter_mean(a, truth)
    # a zero-count type the assorter has no value for needs none
    reported = Tally({**truth.counts, missing[0]: 0}) if missing else truth
    n = truth.total
    m = batch_matrix([BatchRecord("b", reported, reported, n)])
    eta = float(mean)
    if eta > 0.5 and eta >= float(upper):
        with pytest.raises(ValueError, match="degenerate"):
            alpha_init([a], m)
    else:
        [spec] = alpha_init([a], m)
        assert (spec.eta, spec.approvable) == (eta, eta > 0.5)
    [r] = conclude_audit([AssertionOutcome("x", True, False, n)], [a], m).assertions
    assert r.truly_satisfied == (mean > HALF)

    bt = next(iter(values))
    with pytest.raises(ValueError, match="'x' has a negative value"):
        assorter_from_values({**values, bt: Fraction(-1, 2**64)}, upper, label="x")
    top = max(values.values())
    for low in [Fraction(0), Fraction(-1)] + ([top - Fraction(1, 2**80)] if top else []):
        with pytest.raises(ValueError, match="'x' upper bound below a value"):
            assorter_from_values(values, low, label="x")


def test_batch_matrix_layout():
    c = Contest.from_party_names(["Zed", "Amy"])
    t1 = c.tally({"Zed": 3, "Amy": 1})
    t2 = Tally({c.by_name("Zed"): 2})  # no entries for Amy or invalid
    m = batch_matrix([BatchRecord("x", t1, t1, 4), BatchRecord("y", t2, t2, 2)])
    assert len(m) == 2 and [bt.name for bt in m.types] == ["Amy", "Zed", "__invalid__"]
    assert m.truth.tolist() == [[1, 3, 0], [0, 2, 0]]
    assert m.sizes.tolist() == [4, 2]
    assert m.combined(m.reported).counts == {c.by_name("Amy"): 1, c.by_name("Zed"): 5, c.invalid: 0}


def test_batch_matrix_rejects_bad_batch_lists():
    t = CONTEST.tally({"A": 2})
    with pytest.raises(ValueError, match="batch list is empty"):
        batch_matrix([])
    with pytest.raises(ValueError, match="duplicate batch id 'x'"):
        batch_matrix([BatchRecord("x", t, t, 2), BatchRecord("x", t, t, 2)])
    with pytest.raises(ValueError, match="not padded"):
        batch_matrix([BatchRecord("x", t, t, 3)])
    huge = CONTEST.tally({"A": 2**62})
    with pytest.raises(ValueError, match="overflow"):
        batch_matrix([BatchRecord(f"b{i}", huge, huge, 2**62) for i in range(2)])
    with pytest.raises(ValueError, match="overflow"):  # before the deck is built
        deal_matrix(CONTEST.tally({"A": 2**63}), make_rng(0))


def test_assorter_row_common_denominator():
    a = knesset_assertions(120, False)[0]  # above-threshold:A scores 200/13, 1/2 and 0
    num, den = a.row(CONTEST.ballot_types)
    assert den == 26 and num.dtype == np.int64
    assert [Fraction(int(x), den) for x in num] == [a.value(bt) for bt in CONTEST.ballot_types]


def test_exact_matmul_switches_to_python_ints_past_int64():
    counts = np.array([[2**60, 1]], dtype=np.int64)
    num = np.array([16, 3], dtype=np.int64)
    product = exact_matmul(counts, num)
    assert product.dtype == object and product.tolist() == [2**64 + 3]
    assert exact_matmul(counts, np.array([4, 3])).tolist() == [2**62 + 3]


def test_exact_quotients_round_like_fraction_past_2_53():
    # 2**53 + 1 is not a float64: dividing its float would round twice
    p = np.array([2**53 + 1, 7], dtype=np.int64)
    q = np.array([3, 1], dtype=np.int64)
    expected = float(Fraction(2**53 + 1, 3))
    assert exact_quotients(p, 1, q).tolist() == [expected, 7.0]
    assert (p / q)[0] != expected
    assert exact_quotients(np.array([7]), 3 * 2**60, np.array([1]))[0] == float(Fraction(7, 3 * 2**60))


def test_stacked_products_past_int64_match_fraction_references():
    """Counts near 2**59 times numerators near 2**8 pass 2**63 in every
    stacked product, and one assorter's numerators pass 2**63 themselves:
    the rows, the batch sums of both batch audits, eta and the full count's
    verdict fall back to Python ints and equal their ``Fraction`` references."""
    by = CONTEST.by_name
    big = assorter_from_values({by("A"): Fraction(2**64 + 1, 2**66), by("B"): Fraction(0),
                    by("C"): Fraction(1, 2), by("D"): Fraction(1, 2),
                    CONTEST.invalid: Fraction(1, 2)}, Fraction(1, 2), "big")
    assertions = plurality_assertions() + knesset_assertions(120, False) + [big]
    assert max(a.num.max() for a in assertions[:-1]) >= 2**8 and big.num.dtype == object
    counts = [{"A": 2**59 + 7, "B": 2**58, "C": 2**56 + 3, "D": 2**54 + 1},
              {"A": 2**58, "B": 2**59 + 1, "C": 2**56, "D": 2**54 + 5}]
    batches = []
    for i, (rep, true) in enumerate([(counts[0], counts[1]), (counts[1], counts[0])]):
        size = max(sum(rep.values()), sum(true.values()))
        pad = lambda c: CONTEST.tally({**c, "__invalid__": size - sum(c.values())})
        batches.append(BatchRecord(f"b{i}", pad(rep), pad(true), size))
    m = batch_matrix(batches)
    n = int(m.sizes.sum())
    rows = assertion_rows(assertions, m)
    assert rows.num.dtype == object
    assert assertion_rows(assertions[:-1], m).num.dtype == np.int64
    for rs in (exact_matmul(m.reported, rows.num.T), exact_matmul(m.truth, rows.num.T)):
        assert rs.dtype == object and max(rs.ravel().tolist()) >= 2**63

    reported = total(b.reported for b in batches)
    truth = total(b.truth for b in batches)
    specs = alpha_init(assertions, m, rows)
    assert [s.eta for s in specs] == [float(assorter_mean(a, reported)) for a in assertions]
    refused = [AssertionOutcome(a.label, True, False, n) for a in assertions]
    assert [r.truly_satisfied for r in conclude_audit(refused, assertions, m, rows).assertions] == [
        assorter_mean(a, truth) > HALF for a in assertions
    ]
    lifted, values = lift_assertions(assertions, m, rows=rows)
    assert any(A is not None for A in lifted)
    for A, row in zip(lifted, values):
        if A is not None:
            assert row.tolist() == [float(batch_assorter_value_exact(A, b)) for b in batches]
    cfg = AuditConfig(alpha=0.05, seed=0)
    with mock.patch.object(alpha_mod, "batch_audit_loop", wraps=alpha_mod.batch_audit_loop) as loop:
        alpha_batch_audit(m, assertions, cfg)
    assert loop.call_args.args[2].tolist() == [
        [float(assorter_mean(a, b.truth)) for b in batches] for a in assertions
    ]


def test_knesset_trial_builds_and_tests_each_assertion_set_once(monkeypatch):
    """On the shipped Knesset contest: seats are allocated once per
    assertion set, each batch audit calls the kernel once for all its
    assertions, the batch-comparison lift takes one matrix product per side,
    and the ballot-level audit calls the kernel once per approvable assertion."""
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    contest, tally, knesset = load_election_inputs(
        "configs/contest_synthetic.csv", "configs/knesset_synthetic.json"
    )
    m = deal_matrix(tally, make_rng((0, 0)))
    with mock.patch.object(knesset_mod, "_allocation", wraps=knesset_mod._allocation) as allocation:
        assertions = election_assertions(contest, knesset, m.combined(m.reported))
    assert allocation.call_count == 1 and len(assertions) == 56
    cfg = AuditConfig(alpha=0.05, seed=(0, 1))
    kernel = mock.patch.object(alpha_mod, "sequential_test", wraps=alpha_mod.sequential_test)
    for audit in (alpha_batch_audit, batchcomp_audit, alpha_audit):
        with kernel as calls, mock.patch.object(
            batchcomp_mod, "exact_matmul", wraps=batchcomp_mod.exact_matmul
        ) as matmul:
            outcome = audit(m, assertions, cfg)
        approvable = sum(r.approvable for r in outcome.assertions)
        assert calls.call_count == (approvable if audit is alpha_audit else 1), audit.__name__
        assert matmul.call_count == (2 if audit is batchcomp_audit else 0), audit.__name__
