"""Census audit: does the head count allocate representatives the way a full
re-survey would?

States receive representatives by a highest-averages rule over their census
populations (cell value (pop_s + c_s) / d(r); the d'Hondt divisor d(r) = r by
default).  A post-enumeration survey re-counts a random sample of households;
the audit treats the census as the reported result and the survey as the
truth, and outputs the smallest risk limit at which the census allocation can
be approved, rather than taking a risk limit up front: the sample is whatever
the survey collected, so the evidence, not the appetite, is the budget.

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
constant, floored at mu + epsilon) and with no risk limit to stop at: T is
the running product of the factors (1/U) (A eta/mu + (U - A)(U - eta)/(U - mu)),
and the pair's risk is 1 / max T, or 0 once the sample alone forces the
pair's mean above 1/2.

The survey sample is drawn in one vectorised step, a shuffle of the
surveyed households interleaved with one of the households outside the
survey frame, so the auditor sees a uniform draw of all households.

A trial audits one census at many sample fractions, so the allocation and
pair constants, which do not depend on the survey, are built once per census.
Injection maps only the redrawn households to sizes: other draws are unused.

Populations are columnar :class:`CensusData` from generation through the
audit.  :class:`Household` is the row type of a household CSV, which
``CensusData.from_households`` converts, and the input of the exact
``Fraction`` assorters in the tests that the float audit is checked against.
"""

from __future__ import annotations

import copy
import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Mapping, Sequence

import numpy as np

from .alpha import AuditConfig, comparison_spec, sequential_test
from .apportionment import DIVISORS, Divisor, highest_averages
from .randomness import make_rng

DEFAULT_GMAX = 15
DEFAULT_DELTA = 1e-10


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


@dataclass(frozen=True)
class Household:
    id: str
    state: str
    census_count: int
    pes_count: int | None = None
    in_pes_frame: bool = True

    @property
    def surveyed(self) -> bool:
        return self.pes_count is not None


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

    @property
    def agree_value(self) -> Fraction:
        return Fraction(1, 2) + self.m / (2 * (self.z - self.m))


def census_pair(
    model: CensusModel,
    seats: Mapping[str, int],
    census_pops: Mapping[str, int],
    n_households: int,
    s1: str,
    s2: str,
) -> CensusPair:
    """Constants for the (s1, s2) assertion from census aggregates.

    Raises for a non-positive normaliser or z <= m (no room for the test to
    move); a non-positive margin m is *not* an error here, it means the
    census refutes the assertion by itself and the caller pins its risk at 1.
    """
    if s1 == s2:
        raise ValueError("pair states must differ")
    d = model.divisor
    r1, r2 = seats[s1], seats[s2]
    d1, d2 = d(r1), d(r2 + 1)
    if r1 == 0:
        raise ValueError(f"state {s1!r} holds no seat to defend against {s2!r}")
    n = n_households
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
    if z <= m:
        raise ValueError(f"degenerate pair ({s1}, {s2}): z={z} does not exceed margin m={m}")
    return CensusPair(s1=s1, s2=s2, r1=r1, r2=r2, d1=d1, d2=d2, g_max=g, c=c, m=m, z=z)


@dataclass(frozen=True)
class CensusOutcome:
    """Smallest approvable risk limit overall, per pair and per state."""

    risk_limit: float
    pair_risks: Mapping[tuple[str, str], float]
    state_risks: Mapping[str, float]
    households_examined: int
    total_households: int
    census_seats: Mapping[str, int]


class CensusData:
    """Columnar households: entry i of every array is household i.

    ``state_idx`` indexes ``model.states``; ``pes`` is the survey count where
    ``has_pes`` is set and the census count ``cen`` elsewhere; ``in_frame``
    marks households the survey could reach.  Defaults: ``pes = cen``, flags set.
    """

    def __init__(self, model: CensusModel, state_idx, cen, pes=None, has_pes=None, in_frame=None):
        self.model = model
        self.state_idx = np.asarray(state_idx, dtype=np.intp)
        self.cen = np.asarray(cen, dtype=np.int64)
        self.pes = self.cen if pes is None else np.asarray(pes, dtype=np.int64)
        n = self.cen.size
        self.has_pes = np.ones(n, bool) if has_pes is None else np.asarray(has_pes, dtype=bool)
        self.in_frame = np.ones(n, bool) if in_frame is None else np.asarray(in_frame, dtype=bool)
        columns = (self.state_idx, self.cen, self.pes, self.has_pes, self.in_frame)
        if any(col.shape != (n,) for col in columns):
            raise ValueError("household arrays must be one-dimensional and of one length")
        if n == 0:
            raise ValueError("no households")
        _check_range("state index", self.state_idx, True, len(model.states) - 1)
        _check_range("census count", self.cen, True, model.g_max)
        _check_range("survey count", self.pes, self.has_pes, model.g_max)
        self.census_pops = self.state_totals(self.cen)
        self._pair_tests: dict = {}  # see _pair_tests

    def with_pes(self, pes) -> CensusData:
        """A copy with new survey counts, the only column checked; the rest is shared."""
        new = copy.copy(self)
        new.pes = np.asarray(pes, dtype=np.int64)
        if new.pes.shape != (self.n,):
            raise ValueError("household arrays must be one-dimensional and of one length")
        _check_range("survey count", new.pes, self.has_pes, self.model.g_max)
        return new

    @classmethod
    def from_households(cls, model: CensusModel, households: Sequence[Household]) -> CensusData:
        """Columns of a household list, such as the rows of a household CSV."""
        state_index = {s: i for i, s in enumerate(model.states)}
        ids = set()
        for h in households:
            if h.id in ids:
                raise ValueError(f"duplicate household id {h.id!r}")
            ids.add(h.id)
            if h.state not in state_index:
                raise ValueError(f"household {h.id!r} names unknown state {h.state!r}")
        return cls(
            model,
            [state_index[h.state] for h in households],
            [h.census_count for h in households],
            [h.census_count if h.pes_count is None else h.pes_count for h in households],
            [h.surveyed for h in households],
            [h.in_pes_frame for h in households],
        )

    @property
    def n(self) -> int:
        return len(self.cen)

    def state_totals(self, counts: np.ndarray) -> dict[str, int]:
        """Per-state sums of one count per household."""
        # exact in floats: every partial sum is an integer <= n * g_max < 2**53
        sums = np.bincount(self.state_idx, weights=counts, minlength=len(self.model.states))
        return {s: int(v) for s, v in zip(self.model.states, sums)}


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


def _pair_tests(model: CensusModel, data: CensusData, delta: float, census_seats) -> tuple:
    """The allocation and each ordered pair's (AssertionSpec, slope), or None when
    the census refutes the pair; built once per census, allocation and delta."""
    key = (delta, None if census_seats is None else tuple(sorted(census_seats.items())))
    cache = data._pair_tests if model is data.model else {}
    if key in cache:
        return cache[key]
    if census_seats is None:
        seats = apportion(model, data.census_pops)
    else:
        seats = dict(census_seats)
        if sorted(seats) != sorted(model.states) or sum(seats.values()) != model.representatives:
            raise ValueError("census_seats must allocate every representative to a known state")
    tests = []
    for s1, s2 in permutations(model.states, 2):
        if seats[s1] == 0:
            continue  # no seat of s1 to defend; the pair condition is vacuous
        pair = census_pair(model, seats, data.census_pops, data.n, s1, s2)
        if pair.m <= 0:
            tests.append(((s1, s2), None))
            continue
        scale = 2 * (pair.z - pair.m)
        slope = np.zeros(len(model.states))
        slope[model.states.index(s1)] = float(1 / (Fraction(pair.d1) * pair.c * scale))
        slope[model.states.index(s2)] = float(-1 / (Fraction(pair.d2) * pair.c * scale))
        spec = comparison_spec(f"{s1}->{s2}", pair.m, pair.z, delta)
        tests.append(((s1, s2), (spec, slope)))
    cache[key] = seats, tests
    return seats, tests


def census_rla(
    model: CensusModel,
    data: CensusData,
    cfg: AuditConfig,
    delta: float = DEFAULT_DELTA,
    surveyed_mask: np.ndarray | None = None,
    census_seats: Mapping[str, int] | None = None,
) -> CensusOutcome:
    """Process the survey sample and return the risk limit it supports.

    Households are drawn without replacement (:func:`_draw_households`)
    until every surveyed household has been seen; then each pair assertion
    is tested along that one draw sequence by
    :func:`electaudit.alpha.sequential_test`.  ``cfg.alpha`` is ignored
    (this audit outputs the risk limit instead of testing one);
    ``cfg.seed`` drives the sampling and ``cfg.epsilon`` the guess ordering.
    A pair whose census margin is not positive gets risk limit 1: the census
    contradicts the allocation on that pair by itself.  ``surveyed_mask``
    overrides the households' own surveyed flags, which lets simulations
    re-divide one generated population into many survey samples cheaply.
    ``census_seats`` audits a supplied allocation instead of the one the
    census implies (some nations amend seat allocations by law rather than
    recompute them).
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

    seats, tests = _pair_tests(model, data, delta, census_seats)
    drawn = _draw_households(surveyed, data.in_frame, make_rng(cfg.seed))
    seen = np.arange(1, len(drawn) + 1)
    # frame-absent draws carry no survey count and score as agreement
    diff = np.where(surveyed_mask[drawn], data.pes[drawn] - data.cen[drawn], 0)
    off = np.flatnonzero(diff)
    off_diff, off_state = diff[off], data.state_idx[drawn[off]]

    pair_risks: dict[tuple[str, str], float] = {}
    for pair, test in tests:
        if test is None:
            pair_risks[pair] = 1.0
            continue
        spec, slope = test  # A = agreement value + (pes - cen) * slope[state]
        A = np.full(len(drawn), spec.eta)
        A[off] = spec.eta + off_diff * slope[off_state]
        approved, _, T_max = sequential_test(A, seen, n, spec, cfg.epsilon, math.inf)
        # approval here means mu fell below 0: the sample alone settles the pair
        pair_risks[pair] = 0.0 if approved else min(1.0, 1.0 / T_max)

    state_risks = {
        s: max((r for pair, r in pair_risks.items() if s in pair), default=0.0)
        for s in model.states
    }
    overall = max(pair_risks.values()) if pair_risks else 0.0
    return CensusOutcome(
        risk_limit=overall,
        pair_risks=pair_risks,
        state_risks=state_risks,
        households_examined=len(drawn),
        total_households=n,
        census_seats=dict(seats),
    )


def _size_distribution(household_dist: Mapping[int, float]) -> tuple[np.ndarray, np.ndarray]:
    """Sorted household sizes and their probabilities, normalised as ``rng.choice`` takes them."""
    sizes = np.array(sorted(household_dist), dtype=np.int64)
    probs = np.array([household_dist[int(s)] for s in sizes], dtype=np.float64)
    if not (0 < probs.sum() < math.inf and probs.min() >= 0):
        raise ValueError("household size distribution must be non-negative, finite and non-empty")
    return sizes, probs / probs.sum()


def _draw_sizes(sizes: np.ndarray, probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``rng.choice(sizes, len(u), p=probs)`` from its uniforms ``u``: the index
    ``cdf.searchsorted(u, "right")`` is the count of inner cdf entries at or below u."""
    cdf = probs.cumsum()
    idx = np.zeros(len(u), dtype=np.min_scalar_type(len(sizes)))  # holds every index
    for c in cdf[:-1] / cdf[-1]:
        idx += c <= u
    return sizes[idx]


def generate_census_population(
    district_pops: Mapping[str, int],
    household_dist: Mapping[int, float],
    nonresponse: float,
    rng,
    representatives: int,
    g_max: int = DEFAULT_GMAX,
    divisor_name: str = "dhondt",
) -> tuple[CensusData, CensusModel]:
    """Synthesize per-household census data matching real district totals.

    Each district gets round(population / mean household size) households,
    with sizes drawn from ``household_dist`` (support must lie in
    [0, g_max]).  Non-responding households (probability ``nonresponse``) are
    recorded with zero residents.  Each district's constant is set to the
    real population minus the generated one, so apportioning the generated
    census necessarily reproduces the real apportionment.  Survey counts are
    initialized equal to the census counts; disagreement is injected
    separately.
    """
    if not 0 <= nonresponse < 1:
        raise ValueError("nonresponse must be in [0, 1)")
    sizes, probs = _size_distribution(household_dist)
    if sizes.min() < 0 or sizes.max() > g_max:
        raise ValueError(f"household size support must lie within [0, {g_max}]")
    mean_size = float((sizes * probs).sum())
    if mean_size <= 0:
        raise ValueError("household size distribution must have positive mean")

    counts: list[np.ndarray] = []
    constants: dict[str, Fraction] = {}
    for district, pop in district_pops.items():
        count = round(pop / mean_size)
        drawn = _draw_sizes(sizes, probs, rng.random(count))
        silent = rng.random(count) < nonresponse
        recorded = np.where(silent, 0, drawn)
        counts.append(recorded)
        constants[district] = Fraction(pop - int(recorded.sum()))
    model = CensusModel(
        states=tuple(district_pops),
        representatives=representatives,
        constants=constants,
        g_max=g_max,
        divisor_name=divisor_name,
    )
    state_idx = np.repeat(np.arange(len(counts)), [len(c) for c in counts])
    return CensusData(model, state_idx, np.concatenate(counts)), model


def inject_survey_disagreement(
    data: CensusData,
    rate: float,
    household_dist: Mapping[int, float],
    rng,
) -> CensusData:
    """Re-draw the survey count of a random ``rate`` share of surveyed households,
    with the stream of ``rng.choice(sizes, n, p)`` and its inverse CDF."""
    if not 0 <= rate <= 1:
        raise ValueError("disagreement rate must be in [0, 1]")
    sizes, probs = _size_distribution(household_dist)
    hit = np.flatnonzero((rng.random(data.n) < rate) & data.has_pes)
    pes = data.pes.copy()
    pes[hit] = _draw_sizes(sizes, probs, rng.random(data.n)[hit])
    return data.with_pes(pes)


def load_districts_csv(path) -> tuple[dict[str, int], dict[str, Fraction]]:
    """Read ``district,population,c_constant`` rows."""
    pops: dict[str, int] = {}
    constants: dict[str, Fraction] = {}
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f, restval="")
        expected = ["district", "population", "c_constant"]
        if reader.fieldnames is None or [c.strip() for c in reader.fieldnames[:3]] != expected:
            raise ValueError(f"{path}: expected columns {','.join(expected)}")
        for row in reader:
            name = row["district"].strip()
            if name in pops:
                raise ValueError(f"{path}: duplicate district {name!r}")
            pops[name] = int(row["population"])
            constants[name] = Fraction(row["c_constant"].strip() or "0")
    return pops, constants


def load_households_csv(path) -> list[Household]:
    """Read ``household_id,district,census_count,pes_count,surveyed`` rows.

    ``pes_count`` must be blank exactly when ``surveyed`` is 0/false.
    """
    out: list[Household] = []
    truthy = {"1", "true", "yes"}
    falsy = {"0", "false", "no", ""}
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f, restval="")
        expected = ["household_id", "district", "census_count", "pes_count", "surveyed"]
        if reader.fieldnames is None or [c.strip() for c in reader.fieldnames[:5]] != expected:
            raise ValueError(f"{path}: expected columns {','.join(expected)}")
        for row in reader:
            flag = row["surveyed"].strip().lower()
            if flag in truthy:
                surveyed = True
            elif flag in falsy:
                surveyed = False
            else:
                raise ValueError(f"{path}: bad surveyed flag {row['surveyed']!r}")
            pes_raw = row["pes_count"].strip()
            if surveyed and not pes_raw:
                raise ValueError(f"{path}: surveyed household {row['household_id']!r} lacks pes_count")
            if not surveyed and pes_raw:
                raise ValueError(
                    f"{path}: unsurveyed household {row['household_id']!r} has a pes_count"
                )
            out.append(
                Household(
                    id=row["household_id"].strip(),
                    state=row["district"].strip(),
                    census_count=int(row["census_count"]),
                    pes_count=int(pes_raw) if pes_raw else None,
                )
            )
    return out
