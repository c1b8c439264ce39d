"""Ballot-level domain types, assorter construction and exact tally matrices.

An assorter is a non-negative scoring function over ballot types.  An
assertion is the statement that the assorter's mean over all cast ballots
exceeds 1/2; full election outcomes are verified by checking a set of such
assertions.  Assorter values are kept as exact rationals so that assertion
equivalences can be checked without rounding; the sequential tests elsewhere
in this package evaluate them in floating point.

An :class:`Assorter` converts its values once, at construction, into one
integer row: numerators over its name-sorted type tuple and one common
denominator, read by every audit and margin through :meth:`Assorter.row`.

An election trial keeps its batches in one :class:`BatchMatrix`, from
dealing to the verdict: reported and true batch-by-type integer counts over
one sorted type index.  :func:`batch_matrix` reads a list of
:class:`BatchRecord` into one; records and ``Tally`` dicts remain at the
CSV boundary and in the exact references.  An assorter is linear in the
tally, so its sums over every batch are one integer matrix product of the
counts and its row (:func:`exact_matmul`), and its sum over a column sum is
an integer dot product.  Every float the audits use is the correctly
rounded quotient of two integers (:func:`exact_quotients`): bit for bit the
float of the exact ``Fraction``.  :func:`assorter_mean` over a ``Tally`` is
the exact reference these fast paths are tested against.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

INVALID_ID = "__invalid__"


def _fraction(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


@dataclass(frozen=True)
class BallotType:
    """One category of vote: a party/candidate, or the invalid ballot."""

    name: str
    is_invalid: bool = False

    def __repr__(self):
        return f"BallotType({self.name!r})" if not self.is_invalid else "BallotType(<invalid>)"


@dataclass(frozen=True)
class Contest:
    """A closed set of ballot types: the parties plus exactly one invalid type.

    The ballot-type set is fixed at construction; tallies and assorters that
    mention an unknown type are rejected rather than silently scored zero.
    """

    ballot_types: tuple[BallotType, ...]

    def __post_init__(self):
        names = [bt.name for bt in self.ballot_types]
        if len(set(names)) != len(names):
            raise ValueError("duplicate ballot type names in contest")
        invalids = [bt for bt in self.ballot_types if bt.is_invalid]
        if len(invalids) != 1:
            raise ValueError("contest must have exactly one invalid ballot type")

    @classmethod
    def from_party_names(cls, parties: Iterable[str]) -> "Contest":
        types = tuple(BallotType(p) for p in parties) + (BallotType(INVALID_ID, is_invalid=True),)
        return cls(types)

    @property
    def invalid(self) -> BallotType:
        for bt in self.ballot_types:
            if bt.is_invalid:
                return bt
        raise AssertionError("unreachable: contest always has an invalid type")

    @property
    def parties(self) -> tuple[BallotType, ...]:
        return tuple(bt for bt in self.ballot_types if not bt.is_invalid)

    def by_name(self, name: str) -> BallotType:
        for bt in self.ballot_types:
            if bt.name == name:
                return bt
        raise KeyError(f"unknown ballot type {name!r} (contest types are closed at construction)")

    def tally(self, counts: Mapping[str, int]) -> "Tally":
        """Build a tally from a name->count map; unknown names are a hard error."""
        full = {bt: 0 for bt in self.ballot_types}
        for name, count in counts.items():
            full[self.by_name(name)] = count
        return Tally(full)


@dataclass(frozen=True)
class Tally:
    """Counts per ballot type.  Every contest type has an entry, possibly 0."""

    counts: Mapping[BallotType, int]

    def __post_init__(self):
        for bt, c in self.counts.items():
            if c < 0:
                raise ValueError(f"negative count for {bt}")

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def get(self, bt: BallotType) -> int:
        return self.counts.get(bt, 0)

    def with_added(self, bt: BallotType, extra: int) -> "Tally":
        merged = dict(self.counts)
        merged[bt] = merged.get(bt, 0) + extra
        return Tally(merged)


# Integers below 2**53 convert to float64 exactly, so one IEEE division of two
# of them is the correctly rounded quotient; int64 arithmetic is exact below 2**63.
_FLOAT_EXACT = 2**53
_INT64_LIMIT = 2**63


@dataclass(frozen=True)
class Assorter:
    """Non-negative per-ballot-type scores with a declared upper bound.

    ``upper`` must dominate every value but may legitimately exceed the max:
    the sequential test stays risk-limiting for any bound above its running
    guess, so callers may declare a looser one.

    The values are stored once, at construction, as one integer row: ``types``
    is the value map's types sorted by name, and ``num[i] / den`` is the
    value of ``types[i]``, with ``den`` the lcm of the denominators.  ``num``
    is read-only int64 when every numerator fits, otherwise an object array
    of Python ints.  ``values`` and :meth:`value` are the ``Fraction`` view.
    """

    values: Mapping[BallotType, Fraction]
    upper: Fraction
    label: str = ""
    types: tuple[BallotType, ...] = field(init=False, repr=False, compare=False)
    num: np.ndarray = field(init=False, repr=False, compare=False)
    den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        types = tuple(sorted(self.values, key=lambda bt: bt.name))
        exact = [_fraction(self.values[bt]) for bt in types]
        upper = _fraction(self.upper)
        den = math.lcm(*(v.denominator for v in exact))
        num = [v.numerator * (den // v.denominator) for v in exact]
        top = max(num)
        if min(num) < 0:
            raise ValueError(f"assorter {self.label!r} has a negative value")
        # upper < top / den, cross-multiplied
        if upper.numerator <= 0 or upper.numerator * den < top * upper.denominator:
            raise ValueError(f"assorter {self.label!r} upper bound below a value")
        row = np.array(num, dtype=np.int64 if top < _INT64_LIMIT else object)
        row.flags.writeable = False
        object.__setattr__(self, "values", dict(zip(types, exact)))
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "types", types)
        object.__setattr__(self, "num", row)
        object.__setattr__(self, "den", den)

    def value(self, bt: BallotType) -> Fraction:
        try:
            return self.values[bt]
        except KeyError:
            raise KeyError(f"assorter {self.label!r} has no value for {bt}") from None

    def row(self, types: Sequence[BallotType]) -> tuple[np.ndarray, int]:
        """``(num, den)`` with ``num[i] / den`` the value of ``types[i]``."""
        if tuple(types) == self.types:
            return self.num, self.den
        position = {bt: i for i, bt in enumerate(self.types)}
        try:
            index = [position[bt] for bt in types]
        except KeyError as exc:
            raise KeyError(f"assorter {self.label!r} has no value for {exc.args[0]}") from None
        return self.num[index], self.den


@dataclass(frozen=True)
class LinearInequality:
    """A tally constraint sum_c beta_c * v(c) > d over n total ballots."""

    coefficients: Mapping[BallotType, Fraction]
    rhs: Fraction
    n: int
    label: str = ""

    def __post_init__(self):
        object.__setattr__(
            self, "coefficients", {bt: Fraction(b) for bt, b in self.coefficients.items()}
        )
        object.__setattr__(self, "rhs", Fraction(self.rhs))
        if self.n <= 0:
            raise ValueError("ballot count n must be positive")
        if all(b == 0 for b in self.coefficients.values()):
            raise ValueError("inequality needs at least one nonzero coefficient")

    def holds(self, tally: Tally) -> bool:
        lhs = sum(self.coefficients[bt] * tally.get(bt) for bt in self.coefficients)
        return lhs > self.rhs


@dataclass(frozen=True)
class BatchRecord:
    """A batch of ballots: reported tally, true tally and physical size.

    Lives here (rather than with the batch audits) because both the
    batch-comparison audit and the batch-polling baseline consume it.
    """

    id: str
    reported: Tally
    truth: Tally
    size: int

    def __post_init__(self):
        if self.size <= 0:
            raise ValueError(f"batch {self.id!r} has non-positive size")


@dataclass(frozen=True, eq=False)
class BatchMatrix:
    """The batches of an election as integer counts over one type index.

    ``types`` is every ballot type of the batches, sorted by name;
    ``reported`` and ``truth`` are batch-by-type int64 count matrices in
    batch order, and ``sizes`` the batch sizes.  ``len()`` is the batch
    count.  Every constructor checks that the ballot total is below 2**63,
    so that every count and every row or column sum fits in int64.
    """

    types: tuple[BallotType, ...]
    reported: np.ndarray
    truth: np.ndarray
    sizes: np.ndarray

    def __post_init__(self):
        if not len(self.sizes):
            raise ValueError("batch list is empty")

    def __len__(self) -> int:
        return len(self.sizes)

    def combined(self, counts: np.ndarray) -> Tally:
        """The tally of all batches together, from ``reported`` or ``truth``."""
        return Tally(dict(zip(self.types, counts.sum(axis=0).tolist())))

    def tallies(self, counts: np.ndarray) -> list[Tally]:
        """One tally per batch, from ``reported`` or ``truth``."""
        return [Tally(dict(zip(self.types, row))) for row in counts.tolist()]


class ConfigError(ValueError):
    """Malformed experiment configuration or data."""


def as_int(value) -> int:
    """``value`` when it is an integer.  A float, even a whole one, a bool or a
    string is a TypeError, so a config value is never silently truncated."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not an integer")
    return operator.index(value)


def as_float(value) -> float:
    """``value`` as a float when it is a number, an int or a float.  A bool or
    a string is a TypeError, so ``true`` or ``"0.05"`` is never read as one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def read_csv(path, columns: Sequence[str]) -> Iterator[tuple[str, ...]]:
    """The rows of a CSV whose header starts with ``columns``.

    Header names are compared stripped; a mismatch is a :class:`ConfigError`.
    Each non-blank row comes as a tuple of its stripped cells in column
    order, ``''`` for a cell the row lacks; cells past the columns are dropped.
    """
    k = len(columns)
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[:k]] != list(columns):
            raise ConfigError(f"{path}: expected columns {','.join(columns)}")
        for row in reader:
            if row:
                cells = [c.strip() for c in row[:k]]
                yield tuple(cells + [""] * (k - len(cells)))


def check_int64_total(n: int) -> None:
    """Reject a ballot total whose int64 count matrices could overflow."""
    if n >= _INT64_LIMIT:
        raise ValueError(f"{n} ballots overflow the int64 count matrices")


def batch_matrix(batches: Sequence[BatchRecord]) -> BatchMatrix:
    """Count matrices of padded batches with unique ids: the batch-list boundary.

    A batch is padded when its reported and true tallies both cover exactly
    its size.
    """
    ids, types = set(), set()
    for b in batches:
        if b.id in ids:
            raise ValueError(f"duplicate batch id {b.id!r}")
        ids.add(b.id)
        if not (b.reported.total == b.truth.total == b.size):
            raise ValueError(
                f"batch {b.id!r} is not padded: reported {b.reported.total}, "
                f"true {b.truth.total}, size {b.size}"
            )
        types.update(b.reported.counts)
        types.update(b.truth.counts)
    sizes = [b.size for b in batches]
    check_int64_total(sum(sizes))
    types = tuple(sorted(types, key=lambda bt: bt.name))

    def counts(side: str) -> np.ndarray:
        rows = [[getattr(b, side).counts.get(bt, 0) for bt in types] for b in batches]
        return np.array(rows, dtype=np.int64)

    return BatchMatrix(types, counts("reported"), counts("truth"), np.array(sizes, dtype=np.int64))


def _max_abs(a: np.ndarray) -> int:
    return int(np.abs(a).max()) if a.size else 0


def exact_matmul(counts: np.ndarray, num: np.ndarray) -> np.ndarray:
    """``counts @ num`` without overflow, for non-negative ``counts``.

    Each product is bounded by its row's count total times ``max|num|``; the
    int64 product is used only when that bound stays below 2**63, and
    Python-int arithmetic otherwise.
    """
    bound = int(counts.sum(axis=1).max(initial=0)) * _max_abs(num)
    if num.dtype != object and bound < _INT64_LIMIT:
        return counts @ num
    return counts.astype(object) @ num.astype(object)


def exact_quotients(p: np.ndarray, scale: int, q: np.ndarray) -> np.ndarray:
    """Floats ``p[i] / (scale * q[i])``, each equal to ``float(Fraction(p[i], scale * q[i]))``.

    numpy divides only when every operand is below 2**53; otherwise Python's
    correctly rounded ``int / int`` does.
    """
    if p.dtype != object and _max_abs(p) < _FLOAT_EXACT and scale * _max_abs(q) < _FLOAT_EXACT:
        return p / (scale * q)
    return np.array([a / (scale * b) for a, b in zip(p.tolist(), q.tolist())], dtype=np.float64)


def assorter_mean(assorter: Assorter, tally: Tally) -> Fraction:
    """Exact mean of the assorter over the ballots counted in ``tally``."""
    total = tally.total
    if total == 0:
        raise ValueError("empty contest: cannot take an assorter mean over zero ballots")
    acc = Fraction(0)
    for bt, count in tally.counts.items():
        if count:
            acc += assorter.value(bt) * count
    return acc / total


def inequality_to_assorter(q: LinearInequality) -> Assorter:
    """Convert a linear tally inequality into an equivalent assorter.

    With z the smallest coefficient, each ballot type scores
    -(beta_b - z) / (2 (z - d/n)), which is non-negative and has mean > 1/2
    over a tally of n ballots exactly when the inequality holds.  Requires
    z - d/n < 0; otherwise the inequality is decided for every tally and has
    no useful assorter form.
    """
    z = min(q.coefficients.values())
    denom = z - q.rhs / q.n
    if denom >= 0:
        raise ValueError(
            f"trivial inequality {q.label!r}: it is either always false or always true"
        )
    values = {bt: -(beta - z) / (2 * denom) for bt, beta in q.coefficients.items()}
    if max(values.values()) == 0:
        # all coefficients equal: the inequality is always false here
        raise ValueError(
            f"trivial inequality {q.label!r}: it is either always false or always true"
        )
    return Assorter(values=values, upper=max(values.values()), label=q.label)


def plurality_assorter(winner: BallotType, loser: BallotType, contest: Contest) -> Assorter:
    """Assorter whose mean exceeds 1/2 iff ``winner`` out-polls ``loser``.

    Scores 1 for the winner, 0 for the loser, 1/2 for every other type
    including invalid ballots.
    """
    if winner == loser:
        raise ValueError("winner and loser must differ")
    values = {}
    for bt in contest.ballot_types:
        if bt == winner:
            values[bt] = Fraction(1)
        elif bt == loser:
            values[bt] = Fraction(0)
        else:
            values[bt] = Fraction(1, 2)
    return Assorter(values=values, upper=Fraction(1), label=f"plurality:{winner.name}>{loser.name}")


def load_contest_csv(path) -> tuple[Contest, Tally]:
    """Read a ``party,reported_votes`` CSV; the ``__invalid__`` row is required."""
    rows: dict[str, int] = {}
    for name, votes in read_csv(path, ("party", "reported_votes")):
        if name in rows:
            raise ValueError(f"{path}: duplicate party row {name!r}")
        rows[name] = int(votes)
    if INVALID_ID not in rows:
        raise ValueError(f"{path}: missing reserved row {INVALID_ID}")
    contest = Contest.from_party_names(n for n in rows if n != INVALID_ID)
    return contest, contest.tally(rows)
