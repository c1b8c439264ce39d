"""Knesset social choice and the assertion set that certifies a seat allocation.

Seats go to parties clearing an electoral threshold of the valid votes, by
the D'Hondt highest-averages rule.  Two parties may pool their votes through
an apparentment: if both clear the threshold alone they are allocated seats
as one united party, and their joint seats are then split between them by the
same rule.  An apparentment with a member below the threshold is ignored.

The correctness of a reported allocation reduces to three families of
half-average assertions:

* every reportedly-above party truly clears the threshold,
* every reportedly-below party truly misses it,
* for each ordered pair of reportedly-above units, no seat should move from
  the second to the first.

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

All three families are generated here as assorters over the contest's ballot
types, ready for any of the sequential tests in this package.  Margins are
counted on each assorter's stored integer row, not on its ``Fraction`` values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .apportionment import dhondt, highest_averages
from .core import Assorter, Contest, Tally, as_int

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


@dataclass(frozen=True)
class SeatAllocation:
    seats: Mapping[str, int]

    @property
    def total(self) -> int:
        return sum(self.seats.values())

    def of(self, party: str) -> int:
        return self.seats[party]


def _votes_by_name(contest: KnessetContest, tally: Tally) -> tuple[dict[str, int], int, int]:
    votes = {}
    invalid = 0
    for bt, count in tally.counts.items():
        if bt.is_invalid:
            invalid += count
        else:
            if bt.name not in contest.parties:
                raise KeyError(f"tally names unknown party {bt.name!r}")
            votes[bt.name] = votes.get(bt.name, 0) + count
    for p in contest.parties:
        votes.setdefault(p, 0)
    return votes, invalid, tally.total


def above_threshold_parties(contest: KnessetContest, tally: Tally) -> set[str]:
    """Parties with at least the threshold share of valid votes.

    A zero-vote party never counts as above, even with a zero threshold; it
    cannot occupy a quotient table row.
    """
    votes, invalid, total = _votes_by_name(contest, tally)
    valid = total - invalid
    return {
        p
        for p in contest.parties
        if votes[p] > 0 and Fraction(votes[p]) >= contest.threshold * valid
    }


def _alliance_units(contest: KnessetContest, above: set[str]) -> list[tuple[str, ...]]:
    """Units for allocation: apparentment pairs with both members above, else singletons."""
    allied: set[str] = set()
    units: list[tuple[str, ...]] = []
    for pair in contest.apparentments:
        members = tuple(sorted(pair))
        if all(p in above for p in members):
            units.append(members)
            allied.update(members)
    for p in sorted(above):
        if p not in allied:
            units.append((p,))
    return sorted(units)


def unit_label(unit: tuple[str, ...]) -> str:
    return "+".join(unit)


def allocate_seats(contest: KnessetContest, tally: Tally) -> SeatAllocation:
    """Final per-party seats for the tally, apparentments included.

    Quotient comparisons are exact, so a raised tie is a genuine tie in the
    election law's sense, not float noise.
    """
    votes, invalid, total = _votes_by_name(contest, tally)
    above = above_threshold_parties(contest, tally)
    if not above:
        raise ValueError("no party clears the electoral threshold")
    units = _alliance_units(contest, above)
    unit_votes = {unit_label(u): Fraction(sum(votes[p] for p in u)) for u in units}
    unit_seats = highest_averages(unit_votes, contest.seats, dhondt, what="allocation")

    result = {p: 0 for p in contest.parties}
    for u in units:
        won = unit_seats[unit_label(u)]
        if len(u) == 1:
            result[u[0]] = won
        elif won > 0:
            split = highest_averages(
                {p: Fraction(votes[p]) for p in u}, won, dhondt, what="allocation"
            )
            for p in u:
                result[p] = split[p]
    return SeatAllocation(result)


def _move_seat_assorter(
    ballot_contest: Contest,
    gainer: tuple[str, ...],
    keeper: tuple[str, ...],
    s_gainer: int,
    s_keeper: int,
    weakened: bool,
) -> Assorter:
    """Assorter refuting 'a seat should move from ``keeper`` to ``gainer``'.

    Ballots for the keeper score 1/2 + (s_gainer + 1) / (2 s_keeper); ballots
    for the gainer score 0; everything else, invalid included, scores 1/2.
    The weakened form instead certifies that no more than one seat should
    move, by pretending the gainer already took one: its keeper value is
    1/2 + (s_gainer + 2) / (2 (s_keeper - 1)).
    """
    if weakened:
        if s_keeper <= 1:
            raise ValueError(
                f"cannot weaken move-seat assertion toward {unit_label(gainer)}: "
                f"{unit_label(keeper)} holds only {s_keeper} seat(s)"
            )
        high = Fraction(1, 2) + Fraction(s_gainer + 2, 2 * (s_keeper - 1))
    else:
        high = Fraction(1, 2) + Fraction(s_gainer + 1, 2 * s_keeper)
    values = {}
    for bt in ballot_contest.ballot_types:
        if bt.name in keeper:
            values[bt] = high
        elif bt.name in gainer:
            values[bt] = Fraction(0)
        else:
            values[bt] = Fraction(1, 2)
    suffix = " (one-seat)" if weakened else ""
    label = f"no-seat-move:{unit_label(keeper)}->{unit_label(gainer)}{suffix}"
    return Assorter(values=values, upper=high, label=label)


def generate_assertions(
    contest: KnessetContest,
    reported: Tally,
    reported_seats: SeatAllocation,
    weaken: Iterable[tuple[str, str]] = (),
) -> list[Assorter]:
    """The full assertion set certifying ``reported_seats`` for ``reported``.

    ``weaken`` lists ordered (gainer, keeper) unit-label pairs whose move-seat
    assertion should use the weakened one-seat form; a pair that names no
    move-seat assertion of the set is a ``ValueError``.  The reported
    allocation is recomputed and must match ``reported_seats``.

    A zero-seat party outside every apparentment is certified by "cannot win
    a seat" rather than by its threshold status when t * valid is below
    d = min over seated units u of v_u / s_u: its threshold assertion is
    dropped and it gets ``no-seat-move:<unit>-><party>`` (s_gainer = 0)
    against every seated unit.  Reportedly-above parties get those as units
    anyway.  Each kept inequality is a D'Hondt optimality condition over the
    true quotient table, so the set stays sound whatever the party's true
    threshold status.  When t * seats >= 1, d <= valid / seats <= t * valid
    and the rule never fires.
    """
    if contest.threshold == 0:
        # the above/below certification scheme needs a real threshold share
        raise ValueError("assertion generation requires a positive electoral threshold")
    check = allocate_seats(contest, reported)
    if dict(check.seats) != dict(reported_seats.seats):
        raise ValueError("reported_seats does not match the allocation of the reported tally")
    weaken = set(weaken)
    unmatched = set(weaken)

    ballot_contest = contest.ballot_contest()
    above = above_threshold_parties(contest, reported)
    t = contest.threshold
    assertions: list[Assorter] = []

    units = _alliance_units(contest, above)
    unit_seats = {unit_label(u): sum(reported_seats.of(p) for p in u) for u in units}
    votes, invalid, total = _votes_by_name(contest, reported)
    seat_price = min(
        Fraction(sum(votes[p] for p in u), unit_seats[unit_label(u)])
        for u in units
        if unit_seats[unit_label(u)] > 0
    )
    seatless: list[str] = []
    if t * (total - invalid) < seat_price:
        pact_members = set().union(*contest.apparentments)
        seatless = [
            p for p in contest.parties if reported_seats.of(p) == 0 and p not in pact_members
        ]

    for p in contest.parties:
        if p in seatless:
            continue
        bt_p = ballot_contest.by_name(p)
        if p in above:
            high = 1 / (2 * t)
            values = {
                bt: (high if bt == bt_p else Fraction(1, 2) if bt.is_invalid else Fraction(0))
                for bt in ballot_contest.ballot_types
            }
            assertions.append(Assorter(values=values, upper=high, label=f"above-threshold:{p}"))
        else:
            high = 1 / (2 * (1 - t))
            values = {
                bt: (Fraction(0) if bt == bt_p else Fraction(1, 2) if bt.is_invalid else high)
                for bt in ballot_contest.ballot_types
            }
            assertions.append(Assorter(values=values, upper=high, label=f"below-threshold:{p}"))

    def add_move(gainer: tuple[str, ...], keeper: tuple[str, ...], s_g: int, s_k: int):
        if s_k == 0:
            return  # no seat to defend
        pair = (unit_label(gainer), unit_label(keeper))
        weakened = pair in weaken
        unmatched.discard(pair)
        assertions.append(
            _move_seat_assorter(ballot_contest, gainer, keeper, s_g, s_k, weakened)
        )

    for u1 in units:
        for u2 in units:
            if u1 == u2:
                continue
            add_move(u1, u2, unit_seats[unit_label(u1)], unit_seats[unit_label(u2)])
    for u in units:
        if len(u) == 2:
            p, q = u
            add_move((p,), (q,), reported_seats.of(p), reported_seats.of(q))
            add_move((q,), (p,), reported_seats.of(q), reported_seats.of(p))
    for p in seatless:
        if p not in above:
            for u in units:
                add_move((p,), u, 0, unit_seats[unit_label(u)])
    if unmatched:
        pairs = ", ".join(f"{g}:{k}" for g, k in sorted(unmatched))
        raise ValueError(f"weaken pair names no move-seat assertion: {pairs}")
    return assertions


def assertion_margin(assorter: Assorter, truth: Tally) -> int:
    """Fewest single-ballot relabels that push the assorter mean to 1/2 or below.

    Relabeling moves one ballot between categories; n stays fixed.  Greedily
    moving ballots from the highest-valued category into the lowest-valued
    one is optimal, since each move's effect is exactly the value difference.
    Returns 0 when the mean is already at most 1/2.

    The greedy runs on integers: with the assorter's values read from its
    stored row ``num / den`` (:meth:`electaudit.core.Assorter.row`), the
    sum's excess over n/2 and each move's effect are counted in units of
    1/(2 den).
    """
    counts = [truth.get(bt) for bt in assorter.types]
    if sum(counts) != truth.total:
        raise KeyError(f"assorter {assorter.label!r} has no value for a counted ballot type")
    if not truth.total:
        raise ValueError("empty contest: cannot take an assorter mean over zero ballots")
    num, den = assorter.row(assorter.types)
    num = num.tolist()
    deficit = 2 * sum(x * c for x, c in zip(num, counts)) - den * truth.total
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
        raise ValueError(
            f"assertion {assorter.label!r} cannot be falsified by relabelling ballots"
        )
    return moves


def load_knesset_config(path) -> KnessetContest:
    """JSON config: ``seats``, ``threshold``, ``apparentments`` (pairs), ``parties``."""
    with open(path, encoding="utf-8") as f:
        raw = json.load(f)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: expected a JSON object")
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
