"""Knesset social choice and the assertion set that certifies a seat allocation.

Seats go to parties clearing an electoral threshold of the valid votes, by
the D'Hondt highest-averages rule.  Two parties may pool their votes through
an apparentment: if both clear the threshold alone they are allocated seats
as one united party, and their joint seats are then split between them by the
same rule.  An apparentment with a member below the threshold is ignored.

The correctness of a reported allocation reduces to three families of
linear inequalities over the true tally v, with threshold t = a/b, valid
the valid-vote total and s_u the seats a unit reportedly holds:

* ``above-threshold:p``: b v_p - a valid > 0, for every reportedly-above
  party;
* ``below-threshold:p``: a valid - b v_p > 0, for every reportedly-below
  party;
* ``no-seat-move:K->G``: (s_G + 1) v_K - s_K v_G > 0, for each ordered pair
  of reportedly-above units with s_K > 0, each side's votes summed over its
  members: no seat should move from K to G.  The one-seat form puts s_G + 1
  and s_K - 1 in place of s_G and s_K: no more than one seat should move.

A party outside every apparentment that wins no seat is the exception.  The
allocation depends only on its being unable to win a seat: it misses the
threshold, or its first quotient loses to the last quotient of every seated
unit.  When the threshold share of the valid votes is below the reported
price of a seat (the smallest votes-per-seat of a seated unit), the second
condition is the weaker, so such a party gets no threshold assertion, only
one "no seat should move to it" assertion per seated unit.  That happens only
in houses where threshold times seats is below one seat.  Apparentment
members keep their threshold assertions: their status decides whether the
pact unites.

A tally is read once into integer party votes, and the allocation is
computed once from them, in integers: v_p >= t valid is tested as
b v_p >= a valid, and the seat price is cross-multiplied the same way.
Seats are a plain party -> seats dict.

Each inequality is an integer weight row over the contest's name-sorted
ballot types, and becomes its half-average assorter through
:func:`electaudit.core.integer_row_assorter`, ready for any of the
sequential tests in this package.  Margins are counted on each assorter's
integer row and one count vector (:func:`relabel_margin`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .apportionment import dhondt, highest_averages
from .core import Assorter, Contest, Tally, as_int, check_keys, integer_row_assorter

DEFAULT_SEATS = 120
DEFAULT_THRESHOLD = Fraction(13, 400)  # 3.25% of valid votes


@dataclass(frozen=True)
class KnessetContest:
    parties: tuple[str, ...]
    seats: int = DEFAULT_SEATS
    threshold: Fraction = DEFAULT_THRESHOLD
    apparentments: tuple[frozenset[str], ...] = ()

    def __post_init__(self):
        if self.seats <= 0:
            raise ValueError("seat count must be positive")
        if not 0 <= self.threshold < 1:
            raise ValueError("threshold must be in [0, 1)")
        if len(set(self.parties)) != len(self.parties):
            raise ValueError("duplicate party names")
        seen: set[str] = set()
        for pair in self.apparentments:
            if len(pair) != 2:
                raise ValueError("an apparentment joins exactly two parties")
            for p in pair:
                if p not in self.parties:
                    raise ValueError(f"apparentment names unknown party {p!r}")
                if p in seen:
                    raise ValueError(f"party {p!r} appears in more than one apparentment")
                seen.add(p)

    def ballot_contest(self) -> Contest:
        return Contest.from_party_names(self.parties)


def _party_votes(contest: KnessetContest, tally: Tally) -> tuple[dict[str, int], int]:
    """Votes per party, every party of the contest included, and the valid-vote total."""
    votes = dict.fromkeys(contest.parties, 0)
    for bt, count in tally.counts.items():
        if bt.is_invalid:
            continue
        if bt.name not in votes:
            raise KeyError(f"tally names unknown party {bt.name!r}")
        votes[bt.name] += count
    return votes, sum(votes.values())


def _above(contest: KnessetContest, votes: Mapping[str, int], valid: int) -> set[str]:
    """Parties with v_p >= t valid, tested as b v_p >= a valid for t = a/b.

    A zero-vote party never counts as above, even with a zero threshold; it
    cannot occupy a quotient table row.
    """
    a, b = contest.threshold.as_integer_ratio()
    return {p for p in contest.parties if votes[p] > 0 and b * votes[p] >= a * valid}


def unit_label(unit: tuple[str, ...]) -> str:
    return "+".join(unit)


def _allocation(
    contest: KnessetContest, votes: Mapping[str, int], valid: int
) -> tuple[set[str], list[tuple[str, ...]], dict[str, int]]:
    """The above-threshold parties, the allocation units and the per-party seats.

    A unit is an apparentment pair with both members above, else a single
    above party.  Quotient comparisons are exact, so a raised tie is a
    genuine tie in the election law's sense, not float noise.
    """
    above = _above(contest, votes, valid)
    if not above:
        raise ValueError("no party clears the electoral threshold")
    units = [tuple(sorted(pair)) for pair in contest.apparentments if above.issuperset(pair)]
    allied = {p for u in units for p in u}
    units = sorted(units + [(p,) for p in above - allied])
    unit_votes = {unit_label(u): sum(votes[p] for p in u) for u in units}
    unit_seats = highest_averages(unit_votes, contest.seats, dhondt, what="allocation")

    seats = dict.fromkeys(contest.parties, 0)
    for u in units:
        won = unit_seats[unit_label(u)]
        if len(u) == 1:
            seats[u[0]] = won
        elif won > 0:
            split = {p: votes[p] for p in u}
            seats.update(highest_averages(split, won, dhondt, what="allocation"))
    return above, units, seats


def allocate_seats(contest: KnessetContest, tally: Tally) -> dict[str, int]:
    """Final per-party seats for the tally, apparentments included."""
    return _allocation(contest, *_party_votes(contest, tally))[2]


def generate_assertions(
    contest: KnessetContest,
    reported: Tally,
    reported_seats: Mapping[str, int] | None = None,
    weaken: Iterable[tuple[str, str]] = (),
) -> list[Assorter]:
    """The full assertion set certifying ``reported_seats`` for ``reported``.

    ``weaken`` lists ordered (gainer, keeper) unit-label pairs whose move-seat
    assertion should use the weakened one-seat form; a pair that names no
    move-seat assertion of the set is a ``ValueError``.  The reported
    allocation is computed here; ``reported_seats``, when given, must match
    it, and None certifies that allocation.

    A zero-seat party outside every apparentment is certified by "cannot win
    a seat" rather than by its threshold status when t * valid is below
    d = min over seated units u of v_u / s_u: its threshold assertion is
    dropped and it gets ``no-seat-move:<unit>-><party>`` (s_gainer = 0)
    against every seated unit.  Reportedly-above parties get those as units
    anyway.  Each kept inequality is a D'Hondt optimality condition over the
    true quotient table, so the set stays sound whatever the party's true
    threshold status.  When t * seats >= 1, d <= valid / seats <= t * valid
    and the rule never fires.

    Each inequality is written as an integer weight row over the contest's
    name-sorted ballot types, the invalid type weighing 0, and converted by
    :func:`electaudit.core.integer_row_assorter`.
    """
    if contest.threshold == 0:
        # the above/below certification scheme needs a real threshold share
        raise ValueError("assertion generation requires a positive electoral threshold")
    if len(contest.parties) < 2:
        # b v_p - a valid > 0 reads (b - a) v_p > 0 alone, which has no assorter form
        raise ValueError("assertion generation requires at least two parties")
    votes, valid = _party_votes(contest, reported)
    above, units, seats = _allocation(contest, votes, valid)
    if reported_seats is not None and seats != dict(reported_seats):
        raise ValueError("reported_seats does not match the allocation of the reported tally")
    weaken = set(weaken)
    unmatched = set(weaken)

    # The reported tally's own type objects where they equal the contest's:
    # an audit's rows over a batch matrix of that tally then match by identity.
    named = {bt.name: bt for bt in contest.ballot_contest().ballot_types}
    named.update((bt.name, bt) for bt in reported.counts if named.get(bt.name) == bt)
    types = tuple(sorted(named.values(), key=lambda bt: bt.name))
    column = {bt.name: i for i, bt in enumerate(types)}
    assertions: list[Assorter] = []

    def add(weight: Mapping[str, int], label: str) -> None:
        """The assertion sum_p weight[p] v_p > 0; a party missing from ``weight`` weighs 0."""
        row = [0] * len(types)
        for party, x in weight.items():
            row[column[party]] = x
        assertions.append(integer_row_assorter(types, row, label))

    unit_seats = {unit_label(u): sum(seats[p] for p in u) for u in units}
    a, b = contest.threshold.as_integer_ratio()
    seatless: list[str] = []
    # t valid < v_u / s_u for every seated unit u, cross-multiplied
    if all(
        a * valid * unit_seats[unit_label(u)] < b * sum(votes[p] for p in u)
        for u in units
        if unit_seats[unit_label(u)] > 0
    ):
        pact_members = set().union(*contest.apparentments)
        seatless = [p for p in contest.parties if seats[p] == 0 and p not in pact_members]

    for p in contest.parties:
        if p in seatless:
            continue
        # above: b v_p - a valid > 0; below is its negation
        sign, side = (1, "above") if p in above else (-1, "below")
        add({c: sign * (b * (c == p) - a) for c in contest.parties}, f"{side}-threshold:{p}")

    def add_move(gainer: tuple[str, ...], keeper: tuple[str, ...], s_g: int, s_k: int):
        """(s_g + 1) v_keeper - s_k v_gainer > 0, the one-seat form with one seat moved first."""
        if s_k == 0:
            return  # no seat to defend
        pair = (unit_label(gainer), unit_label(keeper))
        unmatched.discard(pair)
        suffix = ""
        if pair in weaken:
            if s_k <= 1:
                raise ValueError(
                    f"cannot weaken move-seat assertion toward {unit_label(gainer)}: "
                    f"{unit_label(keeper)} holds only {s_k} seat(s)"
                )
            s_g, s_k, suffix = s_g + 1, s_k - 1, " (one-seat)"
        weight = {**dict.fromkeys(keeper, s_g + 1), **dict.fromkeys(gainer, -s_k)}
        add(weight, f"no-seat-move:{unit_label(keeper)}->{unit_label(gainer)}{suffix}")

    for u1 in units:
        for u2 in units:
            if u1 == u2:
                continue
            add_move(u1, u2, unit_seats[unit_label(u1)], unit_seats[unit_label(u2)])
    for u in units:
        if len(u) == 2:
            p, q = u
            add_move((p,), (q,), seats[p], seats[q])
            add_move((q,), (p,), seats[q], seats[p])
    for p in seatless:
        if p not in above:
            for u in units:
                add_move((p,), u, 0, unit_seats[unit_label(u)])
    if unmatched:
        pairs = ", ".join(f"{g}:{k}" for g, k in sorted(unmatched))
        raise ValueError(f"weaken pair names no move-seat assertion: {pairs}")
    return assertions


def relabel_margin(num: Sequence[int], den: int, counts: Sequence[int], label: str = "") -> int:
    """Fewest single-ballot relabels that push an assorter mean to 1/2 or below.

    The assorter scores type i ``num[i] / den``, and ``counts[i]`` ballots
    (ints) are of type i; every type the assorter scores is listed, counted or not.
    Relabeling moves one ballot between categories; n stays fixed.  Greedily
    moving ballots from the highest-valued category into the lowest-valued
    one is optimal, since each move's effect is exactly the value difference.
    Returns 0 when the mean is already at most 1/2.  The greedy runs on
    integers: the sum's excess over n/2 and each move's effect are counted
    in units of 1/(2 den).
    """
    num = num.tolist() if hasattr(num, "tolist") else list(num)  # a row as Python ints
    n = sum(counts)
    if not n:
        raise ValueError("empty contest: cannot take an assorter mean over zero ballots")
    deficit = 2 * sum(x * c for x, c in zip(num, counts)) - den * n
    lo = min(num)
    moves = 0
    for value, count in sorted(zip(num, counts), reverse=True):
        if deficit <= 0 or value == lo:
            break
        gain = 2 * (value - lo)
        take = min(count, -(-deficit // gain))
        moves += take
        deficit -= take * gain
    if deficit > 0:
        raise ValueError(f"assertion {label!r} cannot be falsified by relabelling ballots")
    return moves


def assertion_margin(assorter: Assorter, truth: Tally) -> int:
    """:func:`relabel_margin` of one assorter's row over ``truth``: a type the
    tally counts must be one the assorter scores."""
    counts = [truth.get(bt) for bt in assorter.types]
    if sum(counts) != truth.total:
        raise KeyError(f"assorter {assorter.label!r} has no value for a counted ballot type")
    return relabel_margin(assorter.num, assorter.den, counts, assorter.label)


def load_knesset_config(path) -> KnessetContest:
    """JSON config: ``seats``, ``threshold``, ``apparentments`` (pairs), ``parties``."""
    with open(path, encoding="utf-8") as f:
        raw = json.load(f)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: expected a JSON object")
    check_keys(raw, ("parties", "seats", "threshold", "apparentments"), str(path))
    if "parties" not in raw:
        raise ValueError(f"{path}: missing 'parties'")
    parties = raw["parties"]
    if not isinstance(parties, list) or not all(isinstance(p, str) for p in parties):
        raise ValueError(f"{path}: 'parties' must be a list of names")
    threshold = raw.get("threshold", None)
    try:
        threshold = Fraction(str(threshold)) if threshold is not None else DEFAULT_THRESHOLD
    except ZeroDivisionError:
        raise ValueError(f"{path}: 'threshold' {threshold!r} divides by zero") from None
    try:
        seats = as_int(raw.get("seats", DEFAULT_SEATS))
    except TypeError as exc:
        raise ValueError(f"{path}: 'seats' must be an integer, got {raw['seats']!r}") from exc
    try:
        apparentments = tuple(frozenset(pair) for pair in raw.get("apparentments", []))
    except TypeError as exc:
        raise ValueError(f"{path}: malformed 'apparentments'") from exc
    return KnessetContest(
        parties=tuple(parties),
        seats=seats,
        threshold=threshold,
        apparentments=apparentments,
    )
