import os
import re
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from electaudit.apportionment import AllocationTieError, highest_averages
from electaudit.core import Assorter, Contest, Tally, assorter_mean
from electaudit.knesset import (
    KnessetContest,
    allocate_seats,
    assertion_margin,
    generate_assertions,
    load_knesset_config,
)
from electaudit import knesset
from electaudit.randomness import make_rng

from .helpers import (
    all_tallies,
    brute_force_highest_averages,
    brute_force_margin,
    fraction_margin,
    hand_derived_assorter,
)

HALF = Fraction(1, 2)


def test_highest_averages_basic():
    assert highest_averages({"P1": 100, "P2": 60, "P3": 40}, 5) == {"P1": 3, "P2": 1, "P3": 1}


def test_highest_averages_tie_detected():
    with pytest.raises(AllocationTieError):
        highest_averages({"P1": 2, "P2": 2}, 3)


@pytest.mark.parametrize(
    "values, seats, quotient",
    [({"P1": 3, "P2": 3}, 3, "3/2"), ({"X": Fraction(5, 2), "Y": Fraction(5, 2)}, 1, "5/2")],
)
def test_tie_error_names_the_exact_boundary_quotient(values, seats, quotient):
    """The message gives the tied quotient v/d itself, not a scaled integer cell."""
    with pytest.raises(AllocationTieError, match=f"boundary quotient {quotient} but"):
        highest_averages(values, seats)


def test_highest_averages_matches_oracle_randomized():
    rng = make_rng(13)
    for _ in range(300):
        parties = int(rng.integers(1, 5))
        seats = int(rng.integers(1, 7))
        votes = {f"P{i}": int(rng.integers(1, 40)) for i in range(parties)}
        oracle = brute_force_highest_averages(votes, seats)
        if oracle is None:
            with pytest.raises(AllocationTieError):
                highest_averages(votes, seats)
        else:
            assert highest_averages(votes, seats) == oracle


def _contest(parties, seats=120, threshold=None, apparentments=()):
    kwargs = {}
    if threshold is not None:
        kwargs["threshold"] = threshold
    return KnessetContest(
        parties=tuple(parties), seats=seats, apparentments=tuple(map(frozenset, apparentments)), **kwargs
    )


def test_allocate_seats_no_threshold():
    kc = _contest(["P1", "P2", "P3"], seats=5, threshold=Fraction(0))
    tally = kc.ballot_contest().tally({"P1": 100, "P2": 60, "P3": 40})
    assert allocate_seats(kc, tally) == {"P1": 3, "P2": 1, "P3": 1}


def test_single_party_above_threshold_takes_all():
    kc = _contest(["A", "B"], seats=7)
    tally = kc.ballot_contest().tally({"A": 960, "B": 20, "__invalid__": 20})
    assert allocate_seats(kc, tally) == {"A": 7, "B": 0}


def test_threshold_drops_small_parties():
    kc = _contest(["A", "B", "C"], seats=10)
    # C holds 2% of valid votes, below 3.25%
    tally = kc.ballot_contest().tally({"A": 600, "B": 380, "C": 20})
    seats = allocate_seats(kc, tally)
    assert seats["C"] == 0
    assert sum(seats.values()) == 10


def test_apparentment_merges_and_splits():
    kc = _contest(["A", "B", "C"], seats=4, threshold=Fraction(0), apparentments=[("A", "B")])
    t = kc.ballot_contest().tally({"A": 36, "B": 26, "C": 40})
    # allied, A+B pool 62 votes and win 3 of 4 seats, split 2-1; alone they
    # would win one each with C taking two
    assert allocate_seats(kc, t) == {"A": 2, "B": 1, "C": 1}
    lone = _contest(["A", "B", "C"], seats=4, threshold=Fraction(0))
    assert allocate_seats(lone, t) == {"A": 1, "B": 1, "C": 2}


def test_apparentment_ignored_when_member_below_threshold():
    kc = _contest(["A", "B", "C"], seats=10, apparentments=[("B", "C")])
    t = kc.ballot_contest().tally({"A": 600, "B": 380, "C": 20})
    kc_plain = _contest(["A", "B", "C"], seats=10)
    assert allocate_seats(kc, t) == allocate_seats(kc_plain, t)


def test_party_in_two_apparentments_rejected():
    with pytest.raises(ValueError):
        _contest(["A", "B", "C"], apparentments=[("A", "B"), ("A", "C")])


def test_allocation_tie_aborts():
    kc = _contest(["A", "B"], seats=3, threshold=Fraction(0))
    t = kc.ballot_contest().tally({"A": 2, "B": 2})
    with pytest.raises(AllocationTieError, match="allocation tie"):
        allocate_seats(kc, t)


def _check_holds_on_reported(assertions, tally):
    for a in assertions:
        assert min(a.values.values()) >= 0
        assert a.upper >= max(a.values.values())
        # every assertion about the reported outcome holds on the reported tally
        assert assorter_mean(a, tally) > HALF


def test_generate_assertions_counts_and_bounds():
    kc = _contest(["A", "B", "C"], seats=10)
    t = kc.ballot_contest().tally({"A": 600, "B": 380, "C": 20})
    seats = allocate_seats(kc, t)
    assert seats == {"A": 6, "B": 4, "C": 0}
    assertions = generate_assertions(kc, t, seats)
    labels = {a.label for a in assertions}
    # At 10 seats t * valid = 32.5 votes is below the price of a seat
    # (min(600/6, 380/4) = 95), so C is certified by "cannot win a seat", not
    # by its threshold status.  A below-threshold:C assertion would be
    # incomplete: the truth A=590, B=370, C=40 also allocates {6, 4, 0}, yet
    # its below-threshold:C mean is 0.4961.
    truth = kc.ballot_contest().tally({"A": 590, "B": 370, "C": 40})
    assert allocate_seats(kc, truth) == seats
    assert all(assorter_mean(a, truth) > HALF for a in assertions)
    assert labels == {
        "above-threshold:A",
        "above-threshold:B",
        "no-seat-move:B->A",
        "no-seat-move:A->B",
        "no-seat-move:A->C",
        "no-seat-move:B->C",
    }
    t_frac = kc.threshold
    by_label = {a.label: a for a in assertions}
    assert by_label["above-threshold:A"].upper == 1 / (2 * t_frac)
    bc = kc.ballot_contest()
    to_c = by_label["no-seat-move:A->C"]  # gainer C (0 seats), keeper A (6 seats)
    assert to_c.value(bc.by_name("A")) == HALF + Fraction(1, 2 * 6)
    assert to_c.value(bc.by_name("C")) == 0
    _check_holds_on_reported(assertions, t)

    # At 120 seats t * seats = 3.9 >= 1: the threshold decides, and C keeps
    # its below-threshold assertion.
    kc120 = _contest(["A", "B", "C"], seats=120)
    seats120 = allocate_seats(kc120, t)
    assert seats120["C"] == 0
    assertions120 = generate_assertions(kc120, t, seats120)
    assert {a.label for a in assertions120} == {
        "above-threshold:A",
        "above-threshold:B",
        "below-threshold:C",
        "no-seat-move:B->A",
        "no-seat-move:A->B",
    }
    by_label120 = {a.label: a for a in assertions120}
    assert by_label120["below-threshold:C"].upper == 1 / (2 * (1 - t_frac))
    _check_holds_on_reported(assertions120, t)


def test_generate_assertions_needs_two_parties():
    """With one party, b v_p - a valid > 0 is (b - a) v_p > 0, which has no
    assorter form; the allocation itself still works."""
    kc = _contest(["A"], seats=5)
    t = kc.ballot_contest().tally({"A": 10, "__invalid__": 2})
    seats = allocate_seats(kc, t)
    assert seats == {"A": 5}
    with pytest.raises(ValueError, match="at least two parties"):
        generate_assertions(kc, t, seats)


def test_generate_assertions_validates_seats():
    kc = _contest(["A", "B"], seats=10)
    t = kc.ballot_contest().tally({"A": 600, "B": 400})
    with pytest.raises(ValueError, match="does not match"):
        generate_assertions(kc, t, {"A": 10, "B": 0})
    # any mapping of party to seats: a read-only view of the right seats passes
    assert generate_assertions(kc, t, MappingProxyType({"A": 6, "B": 4}))
    with pytest.raises(ValueError, match="does not match"):
        generate_assertions(kc, t, MappingProxyType({"A": 6, "B": 4, "C": 0}))


def test_move_seat_values():
    kc = _contest(["A", "B"], seats=9)
    t = kc.ballot_contest().tally({"A": 500, "B": 380})
    seats = allocate_seats(kc, t)
    assert seats == {"A": 5, "B": 4}
    by_label = {a.label: a for a in generate_assertions(kc, t, seats)}
    a_move = by_label["no-seat-move:B->A"]  # gainer A (5 seats), keeper B (4 seats)
    bc = kc.ballot_contest()
    assert a_move.value(bc.by_name("B")) == HALF + Fraction(5 + 1, 2 * 4)
    assert a_move.value(bc.by_name("A")) == 0
    assert a_move.value(bc.invalid) == HALF


def test_weakened_move_seat_value():
    # one-seat weakening with gainer on 5 seats and keeper on 4: 1/2 + 7/6
    kc = _contest(["A", "B"], seats=9)
    t = kc.ballot_contest().tally({"A": 500, "B": 380})
    seats = allocate_seats(kc, t)
    weakened = generate_assertions(kc, t, seats, weaken=[("A", "B")])
    by_label = {a.label: a for a in weakened}
    a_w = by_label["no-seat-move:B->A (one-seat)"]
    bc = kc.ballot_contest()
    assert a_w.value(bc.by_name("B")) == HALF + Fraction(7, 6)


def test_weaken_single_seat_keeper_rejected():
    kc = _contest(["A", "B"], seats=6)
    t = kc.ballot_contest().tally({"A": 500, "B": 110})
    seats = allocate_seats(kc, t)
    assert seats["B"] == 1
    with pytest.raises(ValueError, match="cannot weaken"):
        generate_assertions(kc, t, seats, weaken=[("A", "B")])


def test_move_seat_skipped_for_zero_seat_keeper():
    kc = _contest(["A", "B"], seats=3)
    t = kc.ballot_contest().tally({"A": 900, "B": 100})
    seats = allocate_seats(kc, t)
    assert seats == {"A": 3, "B": 0}
    labels = {a.label for a in generate_assertions(kc, t, seats)}
    assert "no-seat-move:B->A" not in labels  # B holds nothing to lose
    assert "no-seat-move:A->B" in labels


def test_apparentment_assertion_structure():
    kc = _contest(["A", "B", "C"], seats=10, apparentments=[("A", "B")])
    t = kc.ballot_contest().tally({"A": 350, "B": 250, "C": 400})
    seats = allocate_seats(kc, t)
    labels = {a.label for a in generate_assertions(kc, t, seats)}
    # alliance faces C as one unit, plus the intra-alliance pair both ways
    assert "no-seat-move:C->A+B" in labels
    assert "no-seat-move:A+B->C" in labels
    assert "no-seat-move:B->A" in labels and "no-seat-move:A->B" in labels


def test_assertion_margin_examples():
    c = Contest.from_party_names(["Alice", "Bob"])
    a_pl = __import__("electaudit").plurality_assorter(c.by_name("Alice"), c.by_name("Bob"), c)
    assert assertion_margin(a_pl, c.tally({"Alice": 3, "Bob": 1})) == 1
    assert assertion_margin(a_pl, c.tally({"Alice": 1, "Bob": 3})) == 0


def test_assertion_margin_matches_brute_force():
    c = Contest.from_party_names(["A", "B", "C"])
    import electaudit as ea

    rng = make_rng(5)
    assorters = [
        ea.plurality_assorter(c.by_name("A"), c.by_name("B"), c),
        ea.plurality_assorter(c.by_name("A"), c.by_name("C"), c),
    ]
    kc = _contest(["A", "B", "C"], seats=4)
    checked = 0
    for _ in range(60):
        counts = rng.multinomial(int(rng.integers(2, 11)), [0.4, 0.25, 0.25, 0.1])
        tally = c.tally(dict(zip(("A", "B", "C", "__invalid__"), map(int, counts))))
        for a in assorters:
            assert assertion_margin(a, tally) == brute_force_margin(a, tally)
            checked += 1
    assert checked > 0


def test_margin_on_knesset_assertions_small():
    kc = _contest(["A", "B", "C"], seats=4)
    t = kc.ballot_contest().tally({"A": 14, "B": 9, "C": 6, "__invalid__": 1})
    seats = allocate_seats(kc, t)
    for a in generate_assertions(kc, t, seats):
        assert assertion_margin(a, t) == brute_force_margin(a, t)


MARGIN_CONTEST = Contest.from_party_names(["P1", "P2", "P3", "P4"])


def _margin_case(values, counts):
    values = dict(zip(MARGIN_CONTEST.ballot_types, values))
    assorter = Assorter(values=values, upper=max(values.values()), label="case")
    return assorter, Tally(dict(zip(MARGIN_CONTEST.ballot_types, counts)))


@st.composite
def margin_cases(draw):
    """An assorter on a grid of sixths up to 2, so values tie and several
    types can share the lowest value, and a tally with zero counts; some
    assorters cannot be falsified."""
    values = draw(st.lists(st.sampled_from([Fraction(k, 6) for k in range(13)]), min_size=5, max_size=5))
    if not any(values):
        values[0] = Fraction(1)
    counts = draw(st.lists(st.just(0) | st.integers(0, 40) | st.integers(0, 2**62), min_size=5, max_size=5))
    if not any(counts):
        counts[-1] = 1
    return _margin_case(values, counts)


def _same_margin(assorter, tally):
    try:
        want = fraction_margin(assorter, tally)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            assertion_margin(assorter, tally)
        return
    assert assertion_margin(assorter, tally) == want


@given(margin_cases())
@example(_margin_case([1, 0, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)], [3, 3, 5, 0, 1]))  # mean 1/2
@example(_margin_case([1, 0, 0, Fraction(1, 2), 0], [2, 0, 1, 0, 1]))  # mean 1/2, zero counts
@example(_margin_case([1, 1, 1, 1, 1], [4, 0, 1, 0, 2]))  # cannot be falsified
@settings(max_examples=300, deadline=None)
def test_integer_margin_matches_fraction_greedy(case):
    """The integer greedy gives the ``Fraction`` greedy's margin, and the same
    ``ValueError`` for an assorter that no relabelling falsifies."""
    _same_margin(*case)


@given(
    st.lists(st.integers(0, 5000), min_size=4, max_size=4),
    st.integers(0, 200),
    st.integers(3, 40),
    st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_integer_margin_matches_fraction_greedy_on_knesset_assertions(votes, invalid, seats, pact):
    """Every generated threshold and move-seat assertion, on random reported tallies."""
    kc = _contest(["A", "B", "C", "D"], seats=seats, apparentments=[("A", "B")] if pact else [])
    tally = kc.ballot_contest().tally(dict(zip(("A", "B", "C", "D", "__invalid__"), votes + [invalid])))
    try:
        assertions = generate_assertions(kc, tally, allocate_seats(kc, tally))
    except ValueError:  # no party clears the threshold, or an allocation tie
        return
    for a in assertions:
        _same_margin(a, tally)


@st.composite
def knesset_elections(draw):
    """A Knesset contest of 2-7 parties, 1-120 seats, a threshold in (0, 1/3],
    maybe a (P0, P1) pact, and a reported tally."""
    n = draw(st.integers(2, 7))
    parties = [f"P{i}" for i in range(n)]
    den = draw(st.integers(3, 1000))
    threshold = Fraction(draw(st.integers(1, den // 3)), den)
    pact = [("P0", "P1")] if draw(st.booleans()) else []
    kc = _contest(parties, draw(st.integers(1, 120)), threshold, pact)
    votes = st.integers(0, 60) | st.integers(0, 10**6)
    counts = {p: draw(votes) for p in parties + ["__invalid__"]}
    return kc, kc.ballot_contest().tally(counts)


def _same_as_oracle(a, oracle, tally):
    assert (a.label, a.types, a.num.tolist(), a.den, a.upper) == (
        oracle.label, oracle.types, oracle.num.tolist(), oracle.den, oracle.upper
    )
    assert a == oracle and a.num.dtype == oracle.num.dtype
    assert _margin_or_error(a, tally) == _margin_or_error(oracle, tally)


def _margin_or_error(a, tally):
    try:
        return assertion_margin(a, tally)
    except ValueError as exc:
        return str(exc)


@given(knesset_elections(), st.data())
@settings(max_examples=150, deadline=None)
def test_assertions_equal_the_hand_derived_oracle(election, data):
    """Every assertion built from its inequality, with and without weakened
    pairs, and every plurality assertion of the same tally, has the hand-derived
    value map's types, row, denominator, bound and margin."""
    from electaudit.harness import plurality_assertions

    kc, tally = election
    contest = kc.ballot_contest()
    for a in plurality_assertions(contest, tally):
        _same_as_oracle(a, hand_derived_assorter(contest, a.label), tally)
    try:
        seats = allocate_seats(kc, tally)
        assertions = generate_assertions(kc, tally, seats)
    except ValueError:  # no party clears the threshold, or an allocation tie
        return
    moves = [a.label.split(":")[1].split("->") for a in assertions if a.label.startswith("no-seat")]
    weakenable = [(g, k) for k, g in moves if sum(seats[p] for p in k.split("+")) > 1]
    weaken = data.draw(st.lists(st.sampled_from(weakenable), unique=True) if weakenable else st.just([]))
    weakened = generate_assertions(kc, tally, seats, weaken)
    assert [a.label.removesuffix(" (one-seat)") for a in weakened] == [a.label for a in assertions]
    for a in assertions + weakened:
        _same_as_oracle(a, hand_derived_assorter(contest, a.label, seats, kc.threshold), tally)


def _fraction_allocation(kc, votes, valid):
    """The above set, the units and the seats by the ``Fraction`` threshold
    rule v >= t valid, pacts united when both members are above.  The seats
    are None when no party is above or the allocation ties."""
    above = {p for p, v in votes.items() if v > 0 and Fraction(v) >= kc.threshold * valid}
    units = [tuple(sorted(pair)) for pair in kc.apparentments if pair <= above]
    units += [(p,) for p in above if all(p not in u for u in units)]
    seats = dict.fromkeys(kc.parties, 0)
    try:
        won = highest_averages({"+".join(u): sum(votes[p] for p in u) for u in units}, kc.seats)
        for u in units:
            if won["+".join(u)]:
                seats.update(highest_averages({p: votes[p] for p in u}, won["+".join(u)]))
    except ValueError:  # no units, or an AllocationTieError
        seats = None
    return above, units, seats


@st.composite
def threshold_houses(draw, max_seats=120, low_threshold=False):
    """A contest of 2-6 parties with random disjoint pacts and a tally; in
    half the draws one party sits exactly at the threshold, b v = a valid.
    ``low_threshold`` keeps t seats < 1."""
    n = draw(st.integers(2, 6))
    seats = draw(st.integers(1, max_seats))
    b = draw(st.integers(seats + 1 if low_threshold else 2, 2000))
    a = draw(st.integers(1, (b - 1) // seats if low_threshold else b - 1))
    order = draw(st.permutations([f"P{i}" for i in range(n)]))
    pacts = [order[2 * i: 2 * i + 2] for i in range(draw(st.integers(0, n // 2)))]
    kc = _contest(sorted(order), seats, Fraction(a, b), pacts)
    if draw(st.booleans()):
        k = draw(st.integers(1, 300))
        rest = b * k - a * k  # the others' votes, with order[0] on a k / (b k) exactly
        cuts = sorted(draw(st.lists(st.integers(0, rest), min_size=n - 2, max_size=n - 2)))
        votes = [a * k] + [hi - lo for lo, hi in zip([0] + cuts, cuts + [rest])]
    else:
        votes = draw(st.lists(st.integers(0, 3000), min_size=n, max_size=n))
    counts = dict(zip(order, votes), __invalid__=draw(st.integers(0, 500)))
    return kc, kc.ballot_contest().tally(counts), dict(zip(order, votes))


@given(threshold_houses())
@settings(max_examples=300, deadline=None)
def test_allocation_equals_the_fraction_threshold_rule(house):
    """The integer test b v >= a valid gives the ``Fraction`` rule's above set
    and seats, at the boundary b v = a valid too."""
    kc, tally, votes = house
    above, _, seats = _fraction_allocation(kc, votes, sum(votes.values()))
    assert _above(kc, tally) == above
    if seats is None:
        with pytest.raises(ValueError, match="tie" if above else "no party clears"):
            allocate_seats(kc, tally)
    else:
        assert allocate_seats(kc, tally) == seats


@given(threshold_houses(max_seats=30, low_threshold=True))
@settings(max_examples=300, deadline=None)
def test_seatless_parties_equal_the_fraction_seat_price_rule(house):
    """Where t seats < 1, the parties certified by "cannot win a seat" (no
    threshold assertion) are those the ``Fraction`` rule t valid < min v_u / s_u
    picks: every zero-seat party outside a pact, or none."""
    kc, tally, votes = house
    valid = sum(votes.values())
    _, units, seats = _fraction_allocation(kc, votes, valid)
    if seats is None:
        return  # no party above, or an allocation tie
    unit_seats = {u: sum(seats[p] for p in u) for u in units}
    price = min(Fraction(sum(votes[p] for p in u), s) for u, s in unit_seats.items() if s)
    pact_members = set().union(*kc.apparentments)
    seatless = {p for p in kc.parties if seats[p] == 0 and p not in pact_members}
    labels = {a.label for a in generate_assertions(kc, tally, seats)}
    got = {p for p in kc.parties if f"above-threshold:{p}" not in labels
           and f"below-threshold:{p}" not in labels}
    assert got == (seatless if kc.threshold * valid < price else set())


def _above(kc, tally):
    """Parties with at least the threshold share of the tally's valid votes."""
    return knesset._above(kc, *knesset._party_votes(kc, tally))


def _unsound_pairs(kc, n):
    """(reported, truth) tally pairs with n ballots where every assertion for
    the reported allocation holds on the truth, yet the allocations differ."""
    bc = kc.ballot_contest()
    truths = []
    for truth in all_tallies(bc, n):
        try:
            truths.append((truth, allocate_seats(kc, truth)))
        except (AllocationTieError, ValueError):
            continue
    unsound = []
    for reported in all_tallies(bc, n):
        try:
            rep_seats = allocate_seats(kc, reported)
        except (AllocationTieError, ValueError):
            continue
        assertions = generate_assertions(kc, reported, rep_seats)
        for truth, true_seats in truths:
            if rep_seats != true_seats and all(
                assorter_mean(a, truth) > HALF for a in assertions
            ):
                unsound.append((reported.counts, truth.counts))
    return unsound


def test_knesset_assertions_sound_exhaustively():
    """If every assertion holds on the truth, the allocations coincide.

    This is the audit's safety direction and must hold without exception;
    exhaustive over 3-party tallies with 8 ballots and 4 seats (the
    acceptance suite pushes the same check to 30 ballots).
    """
    unsound = _unsound_pairs(_contest(["A", "B", "C"], seats=4), 8)
    assert not unsound, unsound[:3]


def test_knesset_assertions_sound_exhaustively_with_apparentment():
    """The soundness check again, with an (A, B) apparentment.

    Dropping a zero-seat party's threshold assertion relies on its status
    not changing which units share the quotient table; apparentment members
    keep theirs for that reason.  Exhaustive over 8 ballots and 4 seats.
    """
    kc = _contest(["A", "B", "C"], seats=4, apparentments=[("A", "B")])
    unsound = _unsound_pairs(kc, 8)
    assert not unsound, unsound[:3]


def test_knesset_assertions_complete_when_threshold_parties_seated():
    """Equal allocations imply every assertion, seated threshold parties or not.

    With only 4 seats, a party can clear the 3.25% threshold yet win no seat.
    Its threshold status then does not decide the allocation, so it is
    certified by "cannot win a seat" (no seat moves to it from any seated
    unit) instead.  Completeness is asserted on every instance, including
    those where an above-threshold party holds no seat on either side;
    ``gap_hit`` counts the latter to show the regime is exercised.
    """
    kc = _contest(["A", "B", "C"], seats=4)
    bc = kc.ballot_contest()
    n = 8
    gap_hit = 0
    for reported in all_tallies(bc, n):
        try:
            rep_seats = allocate_seats(kc, reported)
        except (AllocationTieError, ValueError):
            continue
        rep_gap = any(rep_seats[p] == 0 for p in _above(kc, reported))
        assertions = generate_assertions(kc, reported, rep_seats)
        for truth in all_tallies(bc, n):
            try:
                true_seats = allocate_seats(kc, truth)
            except (AllocationTieError, ValueError):
                continue
            if rep_seats != true_seats:
                continue
            if rep_gap or any(true_seats[p] == 0 for p in _above(kc, truth)):
                gap_hit += 1
            assert all(assorter_mean(a, truth) > HALF for a in assertions), (
                reported.counts,
                truth.counts,
            )
    assert gap_hit > 0  # zero-seat above-threshold parties occur at this scale


def test_load_knesset_config(tmp_path):
    p = tmp_path / "knesset.json"
    p.write_text(
        '{"parties": ["A", "B", "C"], "seats": 10, "threshold": "0.0325",'
        ' "apparentments": [["A", "B"]]}'
    )
    kc = load_knesset_config(p)
    assert kc.seats == 10
    assert kc.threshold == Fraction(13, 400)
    assert kc.apparentments == (frozenset({"A", "B"}),)


OFFICIAL_24TH = os.environ.get("KNESSET24_CSV")


@pytest.mark.skipif(
    not OFFICIAL_24TH, reason="official 24th Knesset tallies not supplied (KNESSET24_CSV)"
)
def test_official_24th_knesset_allocation():
    """Cross-check against the published allocation, if the user supplies data."""
    import json

    from electaudit.core import load_contest_csv

    contest_csv = OFFICIAL_24TH
    config = os.environ.get("KNESSET24_CONFIG")
    expected = os.environ.get("KNESSET24_SEATS_JSON")
    assert config and expected, "also set KNESSET24_CONFIG and KNESSET24_SEATS_JSON"
    kc = load_knesset_config(config)
    _, tally = load_contest_csv(contest_csv)
    with open(expected, encoding="utf-8") as f:
        official = json.load(f)
    assert allocate_seats(kc, tally) == official
