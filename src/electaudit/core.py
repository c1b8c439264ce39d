"""Ballot-level domain types, assorter construction and exact tally matrices.

An assorter is a non-negative scoring function over ballot types.  An
assertion is the statement that the assorter's mean over all cast ballots
exceeds 1/2; full election outcomes are verified by checking a set of such
assertions.  Each election assertion is a linear tally inequality, such as
``plurality:W>L``, v_W - v_L > 0 (the Knesset families are in
:mod:`electaudit.knesset`), written as integer weights over the name-sorted
types and converted in Python ints straight into its assorter's integer row
(:func:`integer_row_assorter`): numerators over the name-sorted type tuple
and one common denominator, read by every audit and margin through
:meth:`Assorter.row`.  The ``Fraction`` values are a view
derived from the row.

An election trial keeps its batches in one :class:`BatchMatrix`, from
dealing or a batch file to the verdict: reported and true batch-by-type
integer counts over one sorted type index.  :func:`batch_matrix` reads a
list of :class:`BatchRecord` into one; records and ``Tally`` dicts remain
in the batch-list functions and the exact references.  An assorter is
linear in the tally, so an audit stacks its assorters' rows once into one
(assertions x types) integer matrix (:func:`assertion_rows`), and every
assertion's sums over every batch are one integer matrix product of the
counts and that matrix (:func:`exact_matmul`), its sums over a column sum
one more.  Every float the audits use is the correctly rounded quotient of
two integers (:func:`exact_quotients`): bit for bit the float of the exact
``Fraction``.  :func:`assorter_mean` over a ``Tally`` is the exact
reference these fast paths are tested against.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

INVALID_ID = "__invalid__"


def common_denominator(xs: Iterable) -> tuple[list[int], int]:
    """Integers ``num`` and their lowest common denominator ``den``, with
    ``num[i] / den`` exactly ``xs[i]``; no ``Fraction`` is built for an int."""
    exact = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in xs]
    den = math.lcm(*(x.denominator for x in exact))
    return [x.numerator * (den // x.denominator) for x in exact], den


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


# Integers below 2**53 convert to float64 exactly, so one IEEE division of two
# of them is the correctly rounded quotient; int64 arithmetic is exact below 2**63.
_FLOAT_EXACT = 2**53
_INT64_LIMIT = 2**63


@dataclass(frozen=True, eq=False, init=False)
class Assorter:
    """Non-negative per-ballot-type scores with a declared upper bound.

    ``upper`` must dominate every value but may legitimately exceed the max:
    the sequential test stays risk-limiting for any bound above its running
    guess, so callers may declare a looser one.

    The values are stored as one integer row in lowest terms: ``types`` is
    sorted by name, and ``num[i] / den`` is the value of ``types[i]``.
    ``num`` is read-only int64 when every numerator fits, otherwise an object
    array of Python ints.  ``Assorter(values, upper, label)`` builds the row
    from a value map, :meth:`from_row` takes it as given, and ``values`` and
    :meth:`value` are a ``Fraction`` view derived from it.
    """

    types: tuple[BallotType, ...]
    num: np.ndarray
    den: int
    upper: Fraction
    label: str = ""

    def __init__(self, values: Mapping[BallotType, Fraction], upper, label: str = ""):
        types = tuple(sorted(values, key=lambda bt: bt.name))
        self._store(types, *common_denominator(values[bt] for bt in types), upper, label)

    @classmethod
    def from_row(cls, types, num: list[int], den: int, upper, label: str = "") -> "Assorter":
        """The assorter scoring ``types[i]`` ``num[i] / den``; ``types`` sorted by name."""
        self = cls.__new__(cls)
        self._store(types, num, den, upper, label)
        return self

    def _store(self, types, num: list[int], den: int, upper, label: str) -> None:
        upper = Fraction(upper)
        top = max(num)
        if min(num) < 0:
            raise ValueError(f"assorter {label!r} has a negative value")
        # upper < top / den, cross-multiplied
        if upper.numerator <= 0 or upper.numerator * den < top * upper.denominator:
            raise ValueError(f"assorter {label!r} upper bound below a value")
        g = math.gcd(den, *num)
        row = np.array([x // g for x in num], dtype=np.int64 if top // g < _INT64_LIMIT else object)
        row.flags.writeable = False
        fields = {"types": types, "num": row, "den": den // g, "upper": upper, "label": label}
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        key = lambda a: (a.types, a.num.tolist(), a.den, a.upper, a.label)
        return key(self) == key(other) if isinstance(other, Assorter) else NotImplemented

    @property
    def values(self) -> dict[BallotType, Fraction]:
        return {bt: Fraction(x, self.den) for bt, x in zip(self.types, self.num.tolist())}

    def value(self, bt: BallotType) -> Fraction:
        num, den = self.row([bt])
        return Fraction(int(num[0]), den)

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


def check_keys(obj: Mapping, allowed, where: str) -> None:
    """A :class:`ConfigError` naming every key of ``obj`` outside ``allowed``:
    a misspelt key is an error, never a silently applied default."""
    unknown = sorted(map(str, set(obj) - set(allowed)))
    if unknown:
        raise ConfigError(f"{where}: unknown key {', '.join(map(repr, unknown))}")


def read_csv(
    path,
    columns: Sequence[str],
    numbers: Mapping[str, Callable[[str], object]] = {},
    optional: Sequence[str] = (),
) -> Iterator[tuple]:
    """The rows of a CSV whose header starts with ``columns``.

    Header names are compared stripped; a mismatch is a :class:`ConfigError`.
    The ``optional`` columns follow them when the header names them next.
    Each non-blank row comes as a tuple of its stripped cells in column
    order, ``''`` for a cell the row or the header lacks; cells past the
    columns are dropped.
    A cell of a column named in ``numbers`` comes converted by its function,
    and a cell the function rejects is a :class:`ConfigError` naming the
    file, the line, the column and the cell.
    """
    k = len(columns)
    width = k + len(optional)
    convert = [(i, c, numbers[c]) for i, c in enumerate(columns) if c in numbers]
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = [c.strip() for c in next(reader, [])]
        if not header or header[:k] != list(columns):
            raise ConfigError(f"{path}: expected columns {','.join(columns)}")
        if header[k:width] == list(optional):
            k = width
        for row in reader:
            if row:
                cells = [c.strip() for c in row[:k]]
                cells += [""] * (width - len(cells))
                for i, column, number in convert:
                    try:
                        cells[i] = number(cells[i])
                    except (ValueError, ArithmeticError):
                        raise ConfigError(
                            f"{path}, line {reader.line_num}: {column} {cells[i]!r} is not a number"
                        ) from None
                yield tuple(cells)


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


def exact_quotients(p: np.ndarray, scale, q: np.ndarray) -> np.ndarray:
    """Floats ``p[..., i] / (scale * q[i])``, each equal to the float of its exact ``Fraction``.

    ``scale`` is one positive int, or one per row of a two-dimensional ``p``.
    numpy divides a row whose operands are all below 2**53; Python's
    correctly rounded ``int / int`` divides any other row, so one wide row
    leaves the others vectorised.
    """
    rows = p.reshape(-1, p.shape[-1])
    scales = list(scale) if np.ndim(scale) else [scale] * len(rows)
    top = _max_abs(q)
    tops = np.abs(rows).max(axis=1, initial=0).tolist() if p.dtype != object else None
    wide = [tops is None or tops[r] >= _FLOAT_EXACT or s * top >= _FLOAT_EXACT
            for r, s in enumerate(scales)]
    if not any(wide):
        return (rows / (np.array(scales, dtype=np.int64)[:, None] * q)).reshape(p.shape)
    out = np.empty(rows.shape)
    for r, s in enumerate(scales):
        if wide[r]:
            out[r] = [a / (s * b) for a, b in zip(rows[r].tolist(), q.tolist())]
        else:
            out[r] = rows[r] / (s * q)
    return out.reshape(p.shape)


class AssertionRows(NamedTuple):
    """Assorters stacked as integer rows over one type index: ``num[k, i] /
    den[k]`` is assorter k's value of type i.  ``num`` is int64 when every
    numerator is below 2**63, otherwise an object array of Python ints."""

    num: np.ndarray
    den: tuple[int, ...]


def assertion_rows(assorters: Sequence[Assorter], m: BatchMatrix) -> AssertionRows:
    """Every assorter's row over ``m.types``, built once per audit.

    A type that no batch counts, reported or true, needs no value: it scores
    0, which every product with its zero counts ignores.
    """
    counted = m.reported.any(axis=0) | m.truth.any(axis=0)
    types = m.types if counted.all() else tuple(bt for bt, c in zip(m.types, counted) if c)
    rows = [a.row(types) for a in assorters]
    nums = np.array([num for num, _ in rows]).reshape(len(rows), len(types))
    # one bound for the whole matrix: int64 exactly when every numerator fits
    num = np.zeros((len(rows), len(m.types)), np.int64 if _max_abs(nums) < _INT64_LIMIT else object)
    num[:, counted] = nums
    return AssertionRows(num, tuple(den for _, den in rows))


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


def integer_row_assorter(
    types: Sequence[BallotType], b: Sequence[int], label: str = "", p: int = 0, r: int = 1
) -> Assorter:
    """The assorter of sum_c b_c v(c) > (p / r) n over a tally of n ballots,
    for integers ``b[i]`` over ``types`` sorted by name.

    With z = min b, type c scores (b_c - z) r / (2 (p - z r)), which is
    non-negative and has mean > 1/2 exactly when the inequality holds.
    Requires p - z r > 0 and two distinct coefficients; otherwise the
    inequality is decided for every tally and has no useful assorter form.
    """
    z = min(b)
    den = 2 * (p - z * r)
    if den <= 0 or max(b) == z:
        raise ValueError(
            f"trivial inequality {label!r}: it is either always false or always true"
        )
    num = [(x - z) * r for x in b]
    return Assorter.from_row(tuple(types), num, den, Fraction(max(num), den), label)


def plurality_assorter(winner: BallotType, loser: BallotType, contest: Contest) -> Assorter:
    """The assorter of v_winner - v_loser > 0: ``winner`` out-polls ``loser``.

    It scores 1 for the winner, 0 for the loser and 1/2 for every other type,
    invalid ballots included.
    """
    if winner == loser:
        raise ValueError("winner and loser must differ")
    types = tuple(sorted(contest.ballot_types, key=lambda bt: bt.name))
    row = [(bt == winner) - (bt == loser) for bt in types]
    return integer_row_assorter(types, row, f"plurality:{winner.name}>{loser.name}")


def load_contest_csv(path) -> tuple[Contest, Tally]:
    """Read a ``party,reported_votes`` CSV; the ``__invalid__`` row is required."""
    rows: dict[str, int] = {}
    for name, votes in read_csv(path, ("party", "reported_votes"), {"reported_votes": int}):
        if name in rows:
            raise ValueError(f"{path}: duplicate party row {name!r}")
        rows[name] = votes
    if INVALID_ID not in rows:
        raise ValueError(f"{path}: missing reserved row {INVALID_ID}")
    contest = Contest.from_party_names(n for n in rows if n != INVALID_ID)
    return contest, contest.tally(rows)
