"""Census audit: does the head count allocate representatives the way a full
re-survey would?

States receive representatives by a highest-averages rule over their census
populations (cell value (pop_s + c_s) / d(r); the d'Hondt divisor d(r) = r by
default).  A post-enumeration survey re-counts a random sample of households;
the audit treats the census as the reported result and the survey as the
truth, and outputs the smallest risk limit at which the census allocation can
be approved, rather than taking a risk limit up front: the sample is whatever
the survey collected, so the evidence, not the appetite, is the budget.  So
:func:`census_rla` takes only the sampling seed, and returns that risk limit,
each pair's risk and the households examined.

Per ordered pair of states (s1, s2), a household-level assorter certifies the
pairwise inequality that keeps s1's last seat ahead of s2's next one, and a
comparison assorter scores the census-vs-survey discrepancy against the
census margin m of that pair:

    A(h) = 1/2 + (m + a_pes(h) - a_cen(h)) / (2 (z - m)),

with z the scale bound making A non-negative.  Households where the survey
agrees with the census all score the same constant, so agreement compounds
multiplicatively exactly as accurate batches do in the batch-comparison
audit.  All constants are exact rationals; the test runs floats.

Every pair is tested by the one sequential test of the election audits,
:func:`electaudit.alpha.sequential_test`, from the batch-comparison start
of :func:`electaudit.alpha.comparison_spec` (eta fixed at the agreement
constant, floored at mu + ``EPSILON``) and with no risk limit to stop at: T is
the running product of the factors (1/U) (A eta/mu + (U - A)(U - eta)/(U - mu)),
and the pair's risk is 1 / max T, or 0 once the sample alone forces the
pair's mean above 1/2.

The survey sample is drawn in one vectorised step, a shuffle of the
surveyed households interleaved with one of the households outside the
survey frame, so the auditor sees a uniform draw of all households.

A trial audits one census at many sample fractions, so the allocation and
pair constants, which do not depend on the survey, are built once per census.

Populations are columnar :class:`CensusData` from generation through the
audit, which reads the model, the census totals and the household count
from it.  Its columns take the narrowest types the model allows, never the
data: the state index the smallest unsigned type holding ``len(states) - 1``
(uint8 up to 256 states), the census and survey counts the smallest signed
type holding ``g_max`` (int8 up to 127, int16 from 128; int64 past the
int32 max), so a household takes 5 bytes with its two flags.  Values are
range-checked as given, before the cast, and an integer column is required.
No household-length int64, intp or float64 array is built: state totals go
``_SLICE`` = 65536 households at a time, and generation and injection draw
counts and hit positions, not a uniform per household, with the law of the
household-by-household draws (see :func:`generate_census_population`).
A household CSV is read straight into these columns
(:func:`load_households_csv`).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Mapping

import numpy as np

from .alpha import DEFAULT_DELTA, comparison_spec, sequential_test
from .apportionment import DIVISORS, Divisor, highest_averages
from .core import read_csv
from .randomness import Seed, make_rng

DEFAULT_GMAX = 15
_SLICE = 65536  # households per slice of a state total


@dataclass(frozen=True)
class CensusModel:
    """States, house size, per-state additive constants and the divisor rule.

    ``g_max`` is the cap both the census and the survey enforce on a single
    household's headcount; without it one household could swing any seat.
    """

    states: tuple[str, ...]
    representatives: int
    constants: Mapping[str, Fraction]
    g_max: int = DEFAULT_GMAX
    divisor_name: str = "dhondt"

    def __post_init__(self):
        if not self.states:
            raise ValueError("no states")
        if self.representatives <= 0:
            raise ValueError("representative count must be positive")
        if self.g_max <= 0:
            raise ValueError("g_max must be positive")
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate state names")
        if self.divisor_name not in DIVISORS:
            raise ValueError(f"unknown divisor {self.divisor_name!r}; options: {sorted(DIVISORS)}")
        object.__setattr__(
            self, "constants", {s: Fraction(self.constants.get(s, 0)) for s in self.states}
        )

    @property
    def divisor(self) -> Divisor:
        return DIVISORS[self.divisor_name]


def apportion(model: CensusModel, populations: Mapping[str, int]) -> dict[str, int]:
    """Highest-averages allocation over (population + constant) per state."""
    values = {s: Fraction(populations[s]) + model.constants[s] for s in model.states}
    return highest_averages(values, model.representatives, model.divisor, what="apportionment")


@dataclass(frozen=True)
class CensusPair:
    """Precomputed constants for one ordered state pair's assertion.

    r1, r2 are the census seat counts; d1 = d(r1), d2 = d(r2 + 1).  The
    normaliser c comes from converting the pairwise population inequality to
    half-average form; m is the census margin of the pair's assorter and z
    the bound that keeps the comparison assorter non-negative.
    """

    s1: str
    s2: str
    r1: int
    r2: int
    d1: int
    d2: int
    g_max: int
    c: Fraction
    m: Fraction
    z: Fraction


def census_pair(data: CensusData, seats: Mapping[str, int], s1: str, s2: str) -> CensusPair:
    """Constants for the (s1, s2) assertion from the census aggregates of ``data``.

    Raises for a non-positive normaliser, or unless z > m > 0: the test needs
    room to move, and for the allocation :func:`apportion` computes from the
    same totals every pair's margin is positive (a boundary tie raises there).
    """
    if s1 == s2:
        raise ValueError("pair states must differ")
    model, census_pops, n = data.model, data.census_pops, data.n
    r1, r2 = seats[s1], seats[s2]
    d1, d2 = model.divisor(r1), model.divisor(r2 + 1)
    if r1 == 0:
        raise ValueError(f"state {s1!r} holds no seat to defend against {s2!r}")
    g = model.g_max
    c = 2 * (
        Fraction(g, d2)
        + model.constants[s2] / (n * d2)
        - model.constants[s1] / (n * d1)
    )
    if c <= 0:
        raise ValueError(f"degenerate pair ({s1}, {s2}): normaliser is not positive")
    mean_cen = (
        Fraction(census_pops[s1], d1) + Fraction(n * g - census_pops[s2], d2)
    ) / (c * n)
    m = mean_cen - Fraction(1, 2)
    z = max(Fraction(g) / (c * d2), Fraction(g) / (c * d1), Fraction(0))
    if not z > m > 0:
        raise ValueError(f"degenerate pair ({s1}, {s2}): need z > m > 0, got z={z}, m={m}")
    return CensusPair(s1=s1, s2=s2, r1=r1, r2=r2, d1=d1, d2=d2, g_max=g, c=c, m=m, z=z)


@dataclass(frozen=True)
class CensusOutcome:
    """Smallest approvable risk limit overall and per pair."""

    risk_limit: float
    pair_risks: Mapping[tuple[str, str], float]
    households_examined: int


class CensusData:
    """Columnar households: entry i of every array is household i.

    ``state_idx`` indexes ``model.states``; ``pes`` is the survey count where
    ``has_pes`` is set and the census count ``cen`` elsewhere; ``in_frame``
    marks households the survey could reach.  Defaults: ``pes = cen``, flags set.
    """

    def __init__(self, model: CensusModel, state_idx, cen, pes=None, has_pes=None, in_frame=None):
        self.model = model
        state_idx, cen = np.asarray(state_idx), np.asarray(cen)
        pes = cen if pes is None else np.asarray(pes)
        n = cen.size
        self.has_pes = np.ones(n, bool) if has_pes is None else np.asarray(has_pes, dtype=bool)
        self.in_frame = np.ones(n, bool) if in_frame is None else np.asarray(in_frame, dtype=bool)
        if any(col.shape != (n,) for col in (state_idx, cen, pes, self.has_pes, self.in_frame)):
            raise ValueError("household arrays must be one-dimensional and of one length")
        if n == 0:
            raise ValueError("no households")
        k, g = len(model.states), model.g_max
        self.state_idx = _narrow("state index", state_idx, True, k - 1, _index_type(k))
        self.cen = _narrow("census count", cen, True, g, _count_type(g))
        if pes is cen:  # no survey given, or the census array again: cen's check holds
            self.pes = self.cen
        else:
            self.pes = _narrow("survey count", pes, self.has_pes, g, self.cen.dtype)
        self.census_pops = self.state_totals(self.cen)
        self._pair_tests: dict = {}  # see _pair_tests

    def with_pes(self, pes) -> CensusData:
        """A copy with new survey counts, the only column checked; the rest is shared."""
        pes = np.asarray(pes)
        if pes.shape != (self.n,):
            raise ValueError("household arrays must be one-dimensional and of one length")
        new = copy.copy(self)
        new.pes = _narrow("survey count", pes, self.has_pes, self.model.g_max, self.cen.dtype)
        return new

    @property
    def n(self) -> int:
        return len(self.cen)

    def state_totals(self, counts: np.ndarray) -> dict[str, int]:
        """Exact per-state sums of one count per household, taken a slice at a time."""
        k = len(self.model.states)
        top = max(-int(counts.min()), int(counts.max()))
        # a slice's float sums are exact below 2**53, the int64 totals below 2**63
        if min(self.n, _SLICE) * top >= 2**53 or self.n * top >= 2**63:
            raise ValueError(f"state totals of counts up to {top} overflow exact arithmetic")
        totals = np.zeros(k, dtype=np.int64)
        for i in range(0, self.n, _SLICE):
            idx, part = self.state_idx[i : i + _SLICE], counts[i : i + _SLICE]
            totals += np.bincount(idx, weights=part, minlength=k).astype(np.int64)
        return {s: int(v) for s, v in zip(self.model.states, totals)}


def _index_type(k: int) -> np.dtype:
    """The narrowest unsigned type holding a state index below ``k``."""
    return np.min_scalar_type(k - 1)


def _count_type(g_max: int) -> np.dtype:
    """The narrowest signed type holding ``g_max``, int64 past its max.  Signed,
    as the audit subtracts census from survey counts."""
    for t in (np.int8, np.int16, np.int32):
        if g_max <= np.iinfo(t).max:
            return np.dtype(t)
    return np.dtype(np.int64)


def _narrow(what: str, col: np.ndarray, rows, top: int, dtype: np.dtype) -> np.ndarray:
    """Integer ``col`` range-checked on ``rows`` as given, then cast to ``dtype``.

    Any entry ``dtype`` cannot hold, checked or not, is an error, never wrapped."""
    if col.dtype.kind not in "iu":
        raise ValueError(f"{what} column must hold integers, not {col.dtype}")
    _check_range(what, col, rows, top)
    info = np.iinfo(dtype)
    if not np.can_cast(col.dtype, dtype) and (col.min() < info.min or col.max() > info.max):
        raise ValueError(f"{what} column holds values outside {dtype} [{info.min}, {info.max}]")
    return col.astype(dtype, copy=False)


def _check_range(what: str, col: np.ndarray, rows, top: int) -> None:
    """Raise, naming the first of ``rows`` whose entry of ``col`` is outside [0, top]."""
    if col.min(initial=0, where=rows) < 0 or col.max(initial=0, where=rows) > top:
        bad = np.flatnonzero(rows & ((col < 0) | (col > top)))[0]
        raise ValueError(f"household {bad} {what} {col[bad]} outside [0, {top}]")


def _draw_households(surveyed: np.ndarray, in_frame: np.ndarray, rng) -> np.ndarray:
    """Household indices in draw order, until every index in ``surveyed`` is drawn.

    Each draw is uniform over the households not yet drawn, as the auditor
    sees it: it falls in the survey frame with probability the frame's share
    of them, and is then uniform over the surveyed households left, else
    uniform over the non-frame households left.  So the draw interleaves a
    uniform order of the surveyed households with one of the non-frame
    households, the frame/non-frame pattern being that of a uniform shuffle
    of all households, cut after its last surveyed draw.  With every
    household in the frame it is one shuffle of the surveyed households.
    """
    order = rng.permutation(surveyed)
    if order.size == 0 or in_frame.all():
        return order
    outside = np.flatnonzero(~in_frame)
    from_frame = rng.permutation(in_frame.size) < in_frame.size - outside.size
    from_frame = from_frame[: np.flatnonzero(from_frame)[order.size - 1] + 1]
    drawn = np.empty(from_frame.size, dtype=np.intp)
    drawn[from_frame] = order
    drawn[~from_frame] = rng.permutation(outside)[: from_frame.size - order.size]
    return drawn


def _pair_tests(data: CensusData, delta: float) -> list:
    """Each ordered pair of the census allocation with its (AssertionSpec, slope);
    built once per census and delta."""
    if delta in data._pair_tests:
        return data._pair_tests[delta]
    model = data.model
    seats = apportion(model, data.census_pops)
    tests = []
    for s1, s2 in permutations(model.states, 2):
        if seats[s1] == 0:
            continue  # no seat of s1 to defend; the pair condition is vacuous
        pair = census_pair(data, seats, s1, s2)
        scale = 2 * (pair.z - pair.m)
        slope = np.zeros(len(model.states))
        slope[model.states.index(s1)] = float(1 / (Fraction(pair.d1) * pair.c * scale))
        slope[model.states.index(s2)] = float(-1 / (Fraction(pair.d2) * pair.c * scale))
        spec = comparison_spec(f"{s1}->{s2}", pair.m, pair.z, delta)
        tests.append(((s1, s2), spec, slope))
    data._pair_tests[delta] = tests
    return tests


def census_rla(
    data: CensusData,
    seed: Seed,
    delta: float = DEFAULT_DELTA,
    surveyed_mask: np.ndarray | None = None,
) -> CensusOutcome:
    """Process the survey sample and return the risk limit it supports.

    Households are drawn without replacement (:func:`_draw_households`),
    driven by ``seed``, until every surveyed household has been seen; then
    each pair assertion of the census allocation is tested along that one
    draw sequence by :func:`electaudit.alpha.sequential_test`, with no risk
    limit to stop at.  ``surveyed_mask`` overrides the households' own
    surveyed flags, which lets simulations re-divide one generated
    population into many survey samples cheaply.
    """
    if not 0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    n = data.n
    surveyed_mask = data.has_pes if surveyed_mask is None else np.asarray(surveyed_mask, bool)
    if surveyed_mask.shape != (n,):
        raise ValueError("surveyed mask length does not match household count")
    surveyed = np.flatnonzero(surveyed_mask)
    if not data.has_pes[surveyed].all():
        raise ValueError("surveyed mask selects a household with no survey count")
    if not data.in_frame[surveyed].all():
        raise ValueError("a surveyed household is marked outside the survey frame")

    tests = _pair_tests(data, delta)
    drawn = _draw_households(surveyed, data.in_frame, make_rng(seed))
    seen = np.arange(1, len(drawn) + 1)
    # frame-absent draws carry no survey count and score as agreement
    diff = np.where(surveyed_mask[drawn], data.pes[drawn] - data.cen[drawn], 0)
    off = np.flatnonzero(diff)
    off_diff, off_state = diff[off], data.state_idx[drawn[off]]

    pair_risks: dict[tuple[str, str], float] = {}
    for pair, spec, slope in tests:  # A = agreement value + (pes - cen) * slope[state]
        A = np.full(len(drawn), spec.eta)
        A[off] = spec.eta + off_diff * slope[off_state]
        approved, _, T_max = sequential_test(A, seen, n, spec, math.inf)
        # approval here means mu fell below 0: the sample alone settles the pair
        pair_risks[pair] = 0.0 if approved else min(1.0, 1.0 / T_max)
    overall = max(pair_risks.values()) if pair_risks else 0.0
    return CensusOutcome(overall, pair_risks, len(drawn))


def _size_distribution(
    household_dist: Mapping[int, float], g_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted household sizes in the count type of ``g_max`` and their
    probabilities, normalised; every listed size must lie in [0, g_max]."""
    sizes = np.array(sorted(household_dist), dtype=np.int64)
    probs = np.array([household_dist[int(s)] for s in sizes], dtype=np.float64)
    if not (0 < probs.sum() < math.inf and probs.min() >= 0):
        raise ValueError("household size distribution must be non-negative, finite and non-empty")
    if sizes[0] < 0 or sizes[-1] > g_max:
        raise ValueError(f"household size distribution support must lie within [0, {g_max}]")
    return sizes.astype(_count_type(g_max)), probs / probs.sum()


def _hit_positions(n: int, rate: float, rng) -> np.ndarray:
    """Indices below ``n``, each hit on its own with probability ``rate``: the
    law of ``np.flatnonzero(rng.random(n) < rate)``, drawn as geometric gaps
    between hits in time and memory proportional to the hits."""
    if rate == 0:
        return np.empty(0, dtype=np.int64)
    batch = int(1.05 * rate * n) + 64  # gaps per draw: almost always past n in one
    parts, last = [], -1
    while last < n:
        # a gap past n ends the walk; capping it at n + 1 keeps the sums in range
        at = last + np.minimum(rng.geometric(rate, batch), n + 1).cumsum()
        parts.append(at[at < n])
        last = at[-1]
    return np.concatenate(parts)


def generate_census_population(
    district_pops: Mapping[str, int],
    household_dist: Mapping[int, float],
    nonresponse: float,
    rng,
    representatives: int,
    g_max: int = DEFAULT_GMAX,
    divisor_name: str = "dhondt",
) -> CensusData:
    """Synthesize per-household census data matching real district totals.

    Each district gets round(population / mean household size) households,
    sized from ``household_dist`` (support must lie in [0, g_max]) and,
    with probability ``nonresponse``, recorded with zero residents.  They
    are drawn as counts, one multinomial draw over the sizes and one
    binomial draw of the silent households per size, which is the law of
    the counts that independent per-household draws give, and laid out
    grouped by recorded size, silent ones last.  Household order carries no
    information, as the survey sample and the audit's draw order are
    uniform.  Each district's constant is set to the real population minus
    the generated one, so apportioning the generated census necessarily
    reproduces the real apportionment.  Survey counts are initialized equal
    to the census counts; disagreement is injected separately.
    """
    if not 0 <= nonresponse < 1:
        raise ValueError("nonresponse must be in [0, 1)")
    sizes, probs = _size_distribution(household_dist, g_max)
    mean_size = float((sizes * probs).sum())
    if mean_size <= 0:
        raise ValueError("household size distribution must have positive mean")

    recorded_sizes = np.append(sizes, 0).astype(sizes.dtype)  # the silent ones' 0 last
    counts: list[np.ndarray] = []
    constants: dict[str, Fraction] = {}
    for district, pop in district_pops.items():
        per_size = rng.multinomial(round(pop / mean_size), probs)
        silent = rng.binomial(per_size, nonresponse)
        responding = per_size - silent
        counts.append(np.repeat(recorded_sizes, np.append(responding, silent.sum())))
        constants[district] = Fraction(pop - int(responding @ sizes))
    model = CensusModel(
        states=tuple(district_pops),
        representatives=representatives,
        constants=constants,
        g_max=g_max,
        divisor_name=divisor_name,
    )
    states = np.arange(len(counts), dtype=_index_type(len(counts)))
    return CensusData(model, np.repeat(states, [len(c) for c in counts]), np.concatenate(counts))


def inject_survey_disagreement(
    data: CensusData,
    rate: float,
    household_dist: Mapping[int, float],
    rng,
) -> CensusData:
    """Re-draw the survey count of a random ``rate`` share of surveyed households.

    Each household with a survey count is hit on its own with probability
    ``rate``, and a hit one's count is redrawn from ``household_dist``.  The
    hits are found from geometric gaps (:func:`_hit_positions`) and only
    their sizes are drawn, so the draws take time and memory in proportion
    to the hits, with the law of a hit uniform and a redraw per household.
    Only the new survey counts are checked."""
    if not 0 <= rate <= 1:
        raise ValueError("disagreement rate must be in [0, 1]")
    sizes, probs = _size_distribution(household_dist, data.model.g_max)
    hit = _hit_positions(data.n, rate, rng)
    hit = hit[data.has_pes[hit]]  # only a household with a survey count is redrawn
    pes = data.pes.copy()
    pes[hit] = rng.choice(sizes, hit.size, p=probs)
    return data.with_pes(pes)


def load_districts_csv(path) -> tuple[dict[str, int], dict[str, Fraction]]:
    """Read ``district,population,c_constant`` rows."""
    pops: dict[str, int] = {}
    constants: dict[str, Fraction] = {}
    numbers = {"population": int, "c_constant": lambda c: Fraction(c or "0")}
    for name, pop, constant in read_csv(path, ("district", "population", "c_constant"), numbers):
        if name in pops:
            raise ValueError(f"{path}: duplicate district {name!r}")
        pops[name], constants[name] = pop, constant
    return pops, constants


def _flag(path, column: str, cell: str, blank: bool) -> bool:
    """``1``/``true``/``yes`` or ``0``/``false``/``no`` in any case, ``blank`` when empty."""
    flags = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False, "": blank}
    if cell.lower() not in flags:
        raise ValueError(f"{path}: bad {column} flag {cell!r}")
    return flags[cell.lower()]


def load_households_csv(path, model: CensusModel) -> CensusData:
    """Read ``household_id,district,census_count,pes_count,surveyed`` rows,
    and an optional ``in_frame`` column after them, into ``model``'s columns.

    ``pes_count`` must be blank exactly when ``surveyed`` is 0/false.  A
    blank ``surveyed`` is false; a blank or missing ``in_frame`` is true.
    A repeated household id or a district outside the model is an error.
    """
    state_index = {s: i for i, s in enumerate(model.states)}
    ids, columns = set(), ([], [], [], [], [])  # state_idx, cen, pes, has_pes, in_frame
    header = ("household_id", "district", "census_count", "pes_count", "surveyed")
    numbers = {"census_count": int, "pes_count": lambda c: int(c) if c else None}
    for hid, state, cen, pes, surveyed, in_frame in read_csv(path, header, numbers, ("in_frame",)):
        surveyed = _flag(path, "surveyed", surveyed, blank=False)
        if surveyed and pes is None:
            raise ValueError(f"{path}: surveyed household {hid!r} lacks pes_count")
        if not surveyed and pes is not None:
            raise ValueError(f"{path}: unsurveyed household {hid!r} has a pes_count")
        if hid in ids:
            raise ValueError(f"{path}: duplicate household id {hid!r}")
        if state not in state_index:
            raise ValueError(f"{path}: household {hid!r} names unknown state {state!r}")
        ids.add(hid)
        row = (state_index[state], cen, cen if pes is None else pes, surveyed,
               _flag(path, "in_frame", in_frame, blank=True))
        for column, value in zip(columns, row):
            column.append(value)
    return CensusData(model, *columns)
