from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from electaudit.core import (
    Assorter,
    BallotType,
    Contest,
    Tally,
    assorter_mean,
    load_contest_csv,
    plurality_assorter,
)

from .helpers import LinearInequality, all_tallies, inequality_to_assorter

HALF = Fraction(1, 2)


@pytest.fixture
def abc():
    return Contest.from_party_names(["Alice", "Bob", "Carol"])


def test_contest_requires_single_invalid():
    with pytest.raises(ValueError):
        Contest((BallotType("A"), BallotType("B")))
    with pytest.raises(ValueError):
        Contest(
            (
                BallotType("A"),
                BallotType("x", is_invalid=True),
                BallotType("y", is_invalid=True),
            )
        )


def test_unknown_ballot_type_is_hard_error(abc):
    with pytest.raises(KeyError):
        abc.tally({"Alice": 1, "Mallory": 2})


def test_assorter_mean_examples(abc):
    a = plurality_assorter(abc.by_name("Alice"), abc.by_name("Bob"), abc)
    # invalid ballots score 1/2, so an all-invalid tally has mean exactly 1/2
    assert assorter_mean(a, abc.tally({"__invalid__": 7})) == HALF
    assert assorter_mean(a, abc.tally({"Alice": 3, "Bob": 1})) == Fraction(3, 4)
    assert assorter_mean(a, abc.tally({"Alice": 1, "Bob": 1})) == HALF


def test_assorter_mean_empty_contest(abc):
    a = plurality_assorter(abc.by_name("Alice"), abc.by_name("Bob"), abc)
    with pytest.raises(ValueError, match="empty contest"):
        assorter_mean(a, abc.tally({}))


def test_assorter_mean_missing_value_errors(abc):
    a = Assorter({abc.by_name("Alice"): Fraction(1)}, upper=1, label="partial")
    with pytest.raises(KeyError):
        assorter_mean(a, abc.tally({"Alice": 1, "Bob": 1}))


def test_plurality_assorter_values(abc):
    alice, bob, carol = (abc.by_name(n) for n in ("Alice", "Bob", "Carol"))
    a = plurality_assorter(alice, bob, abc)
    assert a.value(alice) == 1 and a.value(bob) == 0
    assert a.value(carol) == HALF and a.value(abc.invalid) == HALF
    assert a.upper == 1
    # (2*1 + 1*0 + 5*(1/2)) / 8
    assert assorter_mean(a, abc.tally({"Alice": 2, "Bob": 1, "Carol": 5})) == Fraction(9, 16)
    assert float(Fraction(9, 16)) == 0.5625
    with pytest.raises(ValueError):
        plurality_assorter(alice, alice, abc)


def test_assorter_rejects_negative_or_low_upper(abc):
    with pytest.raises(ValueError):
        Assorter({abc.by_name("Alice"): Fraction(-1, 2)}, upper=1)
    with pytest.raises(ValueError):
        Assorter({abc.by_name("Alice"): Fraction(2)}, upper=1)


@pytest.mark.parametrize("kind", [int, float, Fraction])
def test_assorter_values_are_exact_for_any_input_type(abc, kind):
    """int, float and Fraction inputs give the same Fraction values and bound,
    and the same errors."""
    alice, bob, carol = (abc.by_name(p) for p in ("Alice", "Bob", "Carol"))
    a = Assorter({alice: kind(2), bob: kind(0), carol: kind(1)}, upper=kind(2), label="x")
    assert a.values == {alice: 2, bob: 0, carol: 1} and a.upper == 2
    assert all(type(v) is Fraction for v in (*a.values.values(), a.upper))
    with pytest.raises(ValueError, match="'x' has a negative value"):
        Assorter({alice: kind(-1)}, upper=kind(1), label="x")
    with pytest.raises(ValueError, match="'x' upper bound below a value"):
        Assorter({alice: kind(3)}, upper=kind(2), label="x")
    with pytest.raises(ValueError, match="'x' upper bound below a value"):
        Assorter({alice: kind(0)}, upper=kind(0), label="x")


def test_row_factory_validates_and_reduces_like_the_value_map(abc):
    types = tuple(sorted(abc.ballot_types, key=lambda bt: bt.name))
    a = Assorter.from_row(types, [4, 0, 2, 2], 4, 1, "x")
    assert (a.num.tolist(), a.den, a.upper) == ([2, 0, 1, 1], 2, 1) and not a.num.flags.writeable
    assert a == Assorter(dict(zip(types, [1, 0, HALF, HALF])), 1, "x")
    assert a != Assorter(dict(zip(types, [1, 0, HALF, HALF])), 1, "y")
    assert a.values == dict(zip(types, [1, 0, HALF, HALF])) and a.value(types[2]) == HALF
    with pytest.raises(ValueError, match="'x' has a negative value"):
        Assorter.from_row(types, [4, -1, 2, 2], 4, 1, "x")
    with pytest.raises(ValueError, match="'x' upper bound below a value"):
        Assorter.from_row(types, [4, 0, 2, 2], 4, Fraction(1, 2), "x")


def test_inequality_to_assorter_majority(abc):
    alice, bob = abc.by_name("Alice"), abc.by_name("Bob")
    q = LinearInequality({alice: 1, bob: -1, abc.invalid: 0, abc.by_name("Carol"): 0}, 0, 10)
    a = inequality_to_assorter(q)
    assert a.value(alice) == 1
    assert a.value(bob) == 0
    assert a.value(abc.invalid) == HALF
    assert a.upper == 1


def test_inequality_to_assorter_trivial_error(abc):
    # equal coefficients make the inequality hold or fail identically for
    # every tally of n ballots
    types = abc.ballot_types
    q = LinearInequality({bt: 3 for bt in types}, rhs=2, n=4)
    with pytest.raises(ValueError, match="trivial inequality"):
        inequality_to_assorter(q)


def test_inequality_needs_a_nonzero_coefficient(abc):
    with pytest.raises(ValueError):
        LinearInequality({bt: 0 for bt in abc.ballot_types}, rhs=1, n=4)


def test_homogeneous_inequality_needs_no_ballot_count(abc):
    """n is read only when rhs is nonzero: a comparison converts without it,
    to the row of any n, and ``rhs != 0`` without n is an error."""
    alice, bob = abc.by_name("Alice"), abc.by_name("Bob")
    coefficients = {alice: 3, bob: -3, abc.invalid: 0, abc.by_name("Carol"): 0}
    q = LinearInequality(coefficients, label="A>B")
    assert (q.rhs, q.n, q.label) == (0, None, "A>B")
    a = inequality_to_assorter(q)
    assert a == inequality_to_assorter(LinearInequality(coefficients, 0, 7, "A>B"))
    assert (a.num.tolist(), a.den, a.upper) == ([2, 0, 1, 1], 2, 1)
    with pytest.raises(ValueError, match="ballot count n must be positive"):
        LinearInequality(coefficients, rhs=1)
    with pytest.raises(ValueError, match="ballot count n must be positive"):
        LinearInequality(coefficients, Fraction(1, 2), 0)


def test_majority_violations_have_low_mean():
    c = Contest.from_party_names(["Alice", "Bob"])
    alice, bob = c.by_name("Alice"), c.by_name("Bob")
    q = LinearInequality({alice: 1, bob: -1, c.invalid: 0}, 0, 4)
    a = inequality_to_assorter(q)
    for tally in all_tallies(c, 4):
        mean = assorter_mean(a, tally)
        if q.holds(tally):
            assert mean > HALF
        else:
            assert mean <= HALF


@st.composite
def small_inequalities(draw):
    n_types = draw(st.integers(3, 5))
    contest = Contest.from_party_names([f"P{i}" for i in range(n_types - 1)])
    coeff = st.fractions(
        min_value=-4, max_value=4, max_denominator=3
    )
    coefficients = {bt: draw(coeff) for bt in contest.ballot_types}
    if all(b == 0 for b in coefficients.values()):
        coefficients[contest.ballot_types[0]] = Fraction(1)
    n = draw(st.integers(1, 12))
    rhs = draw(coeff)
    return contest, LinearInequality(coefficients, rhs, n)


@given(small_inequalities())
@settings(max_examples=60, deadline=None)
def test_inequality_round_trip_exhaustive(case):
    """mean > 1/2 over every possible tally iff the inequality holds there."""
    contest, q = case
    z = min(q.coefficients.values())
    if z - q.rhs / q.n >= 0 or len(set(q.coefficients.values())) == 1:
        with pytest.raises(ValueError, match="trivial inequality"):
            inequality_to_assorter(q)
        return
    a = inequality_to_assorter(q)
    assert all(v >= 0 for v in a.values.values())
    assert a.upper >= max(a.values.values())
    for tally in all_tallies(contest, q.n):
        assert (assorter_mean(a, tally) > HALF) == q.holds(tally)


@given(
    st.lists(st.integers(0, 30), min_size=3, max_size=3),
    st.lists(st.integers(0, 30), min_size=3, max_size=3),
)
@settings(max_examples=50, deadline=None)
def test_assorter_mean_is_linear(counts1, counts2):
    c = Contest.from_party_names(["A", "B"])
    t1 = Tally(dict(zip(c.ballot_types, counts1)))
    t2 = Tally(dict(zip(c.ballot_types, counts2)))
    if t1.total == 0 or t2.total == 0:
        return
    a = plurality_assorter(c.by_name("A"), c.by_name("B"), c)
    merged = Tally({bt: t1.get(bt) + t2.get(bt) for bt in c.ballot_types})
    weighted = (
        assorter_mean(a, t1) * t1.total + assorter_mean(a, t2) * t2.total
    ) / merged.total
    assert assorter_mean(a, merged) == weighted


def test_contest_csv_round_trip(tmp_path):
    p = tmp_path / "contest.csv"
    p.write_text("party,reported_votes\nAlice,10\nBob,5\n__invalid__,2\n")
    contest, tally = load_contest_csv(p)
    assert {bt.name for bt in contest.parties} == {"Alice", "Bob"}
    assert tally.get(contest.by_name("Alice")) == 10
    assert tally.get(contest.invalid) == 2
    assert tally.total == 17


def test_contest_csv_requires_invalid_row(tmp_path):
    p = tmp_path / "contest.csv"
    p.write_text("party,reported_votes\nAlice,10\n")
    with pytest.raises(ValueError, match="__invalid__"):
        load_contest_csv(p)


def test_contest_csv_requires_exact_columns(tmp_path):
    p = tmp_path / "contest.csv"
    p.write_text("name,votes\nAlice,10\n")
    with pytest.raises(ValueError, match="expected columns"):
        load_contest_csv(p)


@given(st.integers(1, 5), st.data())
@settings(max_examples=100, deadline=None)
def test_plurality_assorter_equals_the_inequality_row(parties, data):
    """The plurality row written straight is the row of v_W - v_L > 0 as a
    ``LinearInequality``, for any pair of the contest's types."""
    contest = Contest.from_party_names(data.draw(st.permutations([f"P{i}" for i in range(parties)])))
    winner, loser = data.draw(st.lists(st.sampled_from(contest.ballot_types), min_size=2,
                                       max_size=2, unique=True))
    coefficients = {bt: (bt == winner) - (bt == loser) for bt in contest.ballot_types}
    label = f"plurality:{winner.name}>{loser.name}"
    want = inequality_to_assorter(LinearInequality(coefficients, label=label))
    assert plurality_assorter(winner, loser, contest) == want
