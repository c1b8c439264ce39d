"""Shared test utilities: tally enumeration and small brute-force and reference oracles.

The references are the slow, exact or one-call-at-a-time forms that the
package's fast paths are tested against.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from electaudit.alpha import EPSILON, AssertionSpec, AuditConfig, sequential_test
from electaudit.apportionment import Divisor, dhondt
from electaudit.batchcomp import BatchAssorter
from electaudit import census as census_mod
from electaudit.census import CensusData, CensusModel, CensusPair
from electaudit.core import (
    Assorter,
    BallotType,
    BatchMatrix,
    BatchRecord,
    Contest,
    Tally,
    assorter_mean,
    batch_matrix,
    common_denominator,
    integer_row_assorter,
    read_csv,
)


def compositions(total: int, parts: int):
    """All tuples of ``parts`` non-negative ints summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def all_tallies(contest: Contest, total: int):
    types = contest.ballot_types
    for combo in compositions(total, len(types)):
        yield Tally(dict(zip(types, combo)))


def vote_multisets(max_votes: int, parties: int):
    """Non-increasing vote vectors, one representative per label permutation."""
    return combinations_with_replacement(range(max_votes, -1, -1), parties)


def ballot_batch(truth: Tally, reported: Tally | None = None) -> BatchMatrix:
    """The true ballots as the one batch ``alpha_audit`` takes, reported as
    ``reported`` (default: the truth).

    The audit lays a batch's ballots out by type name, so this is the ballot
    list ``[A] * a + [B] * b + ...`` with the names in sorted order.
    """
    reported = truth if reported is None else reported
    return batch_matrix([BatchRecord("ballots", reported, truth, truth.total)])


@dataclass
class AssertionState:
    """Mutable per-assertion state of the step-by-step reference.

    ``cum_sum`` accumulates ballot-weighted assorter values and ``seen``
    counts ballots, so batch draws enter with their size as weight.
    ``eta_budget`` caches n times the reported mean for the remaining-mean
    guess rule; the comparison audits use a fixed floor instead.
    """

    label: str
    T: float = 1.0
    T_max: float = 1.0
    mu: float = 0.5
    eta: float = 0.0
    u: float = 1.0
    cum_sum: float = 0.0
    seen: int = 0
    active: bool = True
    approvable: bool = True
    approved: bool = False
    eta_budget: float = 0.0


def start_state(spec: AssertionSpec, n: int) -> AssertionState:
    """The reference state before any draw, from :func:`electaudit.alpha.alpha_init`'s
    start of one assertion over ``n`` ballots: T = 1, mu = 1/2, active only
    if approvable."""
    return AssertionState(
        spec.label, eta=spec.eta, u=spec.u, active=spec.approvable,
        approvable=spec.approvable, eta_budget=n * spec.eta,
    )


def advance(
    state: AssertionState,
    value: float,
    weight: int,
    n: int,
    cfg: AuditConfig,
    eta_floor: float | None,
    eps: float,
) -> None:
    """One update of the sequential test, the step-by-step reference for
    :func:`electaudit.alpha.sequential_test`: T from the current (mu, eta, u),
    then the forward guesses.

    ``eta_floor`` of None selects the remaining-reported-mean rule driven by
    ``state.eta_budget``; a float selects the fixed-target rule used by the
    comparison audits.  The guesses are refreshed in the order mu, eta, u so
    each uses the value just computed before it, ``eps`` keeping
    mu < eta < u strict.
    """
    if not state.active:
        raise ValueError(f"assertion {state.label!r} is no longer active")
    if state.seen >= n:
        raise ValueError("all ballots consumed; caller must stop sampling first")
    if value < 0:
        raise ValueError("assorter values are non-negative")
    mu, eta, u = state.mu, state.eta, state.u
    if mu <= 0.0:
        # mu has hit zero exactly: any positive draw is infinite evidence
        factor = math.inf if value > 0 else (u - eta) / (u - mu)
    else:
        factor = (value / mu) * (eta - mu) / (u - mu) + (u - eta) / (u - mu)
    state.T *= factor
    if state.T > state.T_max:
        state.T_max = state.T
    state.cum_sum += value * weight
    state.seen += weight
    if state.T > 1.0 / cfg.alpha:
        state.active = False
        state.approved = True
        return
    if state.seen < n:
        remaining = n - state.seen
        state.mu = (0.5 * n - state.cum_sum) / remaining
        if eta_floor is None:
            target = (state.eta_budget - state.cum_sum) / remaining
        else:
            target = eta_floor
        state.eta = max(state.mu + eps, target)
        state.u = max(state.u, state.eta + eps)
        if state.mu < 0:
            state.active = False
            state.approved = True


# Draws per block of the reference; every block length gives the same bits.
_BLOCK = 8192


def run_path_reference(
    x,
    seen: np.ndarray,
    n: int,
    eta0: float,
    u0: float,
    eps: float,
    threshold: float,
    eta_floor: float | None = None,
    keep: list | None = None,
) -> tuple[bool, int, float]:
    """The sequential kernel in its running-max form: the exact reference for
    :func:`electaudit.alpha.sequential_test` and its trace rows.

    Blocks of ``_BLOCK`` draws, u as a ``maximum.accumulate`` over each
    block, the factor with an array u, and full scans for mu exactly 0 and
    below 0.  Returns (approved, examined, T_max); ``keep``, when a list,
    receives each evaluated block's (T, mu, eta, u) up to the last draw examined.
    """
    m = len(x)
    unit = m > 0 and seen[-1] == m  # one ballot per draw
    state = (0.5, eta0, u0)  # the (mu, eta, u) the next draw is tested with
    S_carry = T_carry = None
    peak = -math.inf  # max of T so far, NaN propagating as in one T.max()
    for i in range(0, m, _BLOCK):
        j = min(i + _BLOCK, m)
        b = j - i
        xb = x[i:j]
        w = xb if unit else xb * np.diff(seen[i:j], prepend=seen[i - 1] if i else 0)
        # the carried sum goes first, so draw i+1 adds to it as in one pass
        S = np.cumsum(np.concatenate(([S_carry], w)))[1:] if i else np.cumsum(w)
        # Entry t of mu/eta/u is the state after i+t draws, which draw i+t+1
        # is tested with; entry 0 is carried over.  No state follows a draw
        # that exhausts the ballots.  The arrays are filled in place to keep
        # temporaries few.
        k = b if seen[j - 1] < n else b - 1
        mu, eta, u = np.empty(b + 1), np.empty(b + 1), np.empty(b + 1)
        mu[0], eta[0], u[0] = state
        mu_next, eta_next, u_next = mu[1 : k + 1], eta[1 : k + 1], u[1 : k + 1]
        remaining = u_next
        np.subtract(n, seen[i : i + k], out=remaining)
        np.subtract(0.5 * n, S[:k], out=mu_next)
        mu_next /= remaining
        if eta_floor is None:
            np.subtract(n * eta0, S[:k], out=eta_next)
            eta_next /= remaining
        else:
            eta_next.fill(eta_floor)
        np.maximum(np.add(mu_next, eps, out=u_next), eta_next, out=eta_next)
        np.add(eta_next, eps, out=u_next)
        # the carried u heads the span, so the running max is one pass's
        np.maximum.accumulate(u[: k + 1], out=u[: k + 1])
        # mu[b] is unset only when draw j exhausts the ballots, and no block follows
        S_carry, state = S[-1], (mu[b], eta[b], u[b])

        mu, eta, u = mu[:b], eta[:b], u[:b]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            T = np.multiply(xb, eta)
            T /= mu
            rest = np.subtract(u, xb, out=S)  # the running sum is no longer needed
            scratch = np.subtract(u, eta)
            rest *= scratch
            rest /= np.subtract(u, mu, out=scratch)
            T += rest
            T *= np.divide(1.0, u, out=scratch)
            # mu exactly 0: a positive draw is infinite evidence, a zero one is not
            zero = np.flatnonzero(mu == 0.0)
            T[zero] = np.where(xb[zero] > 0, np.inf, (u[zero] - eta[zero]) / (u[zero] - mu[zero]))
            if i:  # the carried T times the first factor, as in one pass
                T[0] *= T_carry
            np.cumprod(T, out=T)

        stop = b
        for hit in (T > threshold, mu_next < 0):
            hit = hit[:stop]
            if hit.any():
                stop = int(hit.argmax())
        e = min(stop + 1, b)  # draws of this block examined
        peak = np.maximum(peak, T[:e].max()) if i else T[:e].max()
        if keep is not None:
            keep.append((T[:e], mu[:e], eta[:e], u[:e]))
        if stop < b:
            return True, i + e, max(1.0, float(peak))
        T_carry = T[-1]
    return False, m, max(1.0, float(peak))


class KernelPath(NamedTuple):
    """One assertion's test with its path: ``T[j]`` is T after draw j+1, and
    ``mu[j]``, ``eta[j]`` and ``u[j]`` the values that draw was tested with,
    up to the last draw examined."""

    approved: bool
    examined: int
    T_max: float
    T: np.ndarray
    mu: np.ndarray
    eta: np.ndarray
    u: np.ndarray


def traced_path(x, seen, n: int, spec: AssertionSpec, threshold: float) -> KernelPath:
    """:func:`electaudit.alpha.sequential_test` with the T/mu/eta/u arrays
    rebuilt from its trace rows, which must number the draws 1, 2, ... and
    carry the spec's label."""
    rows = []
    approved, examined, T_max = sequential_test(
        x, seen, n, spec, threshold, lambda *row: rows.append(row)
    )
    assert [r[:2] for r in rows] == [(j, spec.label) for j in range(1, examined + 1)]
    columns = (np.array([r[c] for r in rows], dtype=float) for c in range(2, 6))
    return KernelPath(approved, examined, T_max, *columns)


def alpha_step(
    state: AssertionState, value: float, cfg: AuditConfig, n: int, reported_mean: float
) -> AssertionState:
    """Consume one ballot worth ``value`` under the remaining-reported-mean
    rule; mutates and returns ``state``."""
    state.eta_budget = n * reported_mean
    advance(state, value, 1, n, cfg, None, EPSILON)
    return state


def brute_force_margin(assorter: Assorter, truth: Tally) -> int:
    """Minimal relabel count by exhaustive search over same-size tallies."""
    half = Fraction(1, 2)
    if assorter_mean(assorter, truth) <= half:
        return 0
    types = list(truth.counts)
    n = truth.total
    best = None
    for combo in compositions(n, len(types)):
        cand = Tally(dict(zip(types, combo)))
        if assorter_mean(assorter, cand) <= half:
            dist = sum(abs(cand.get(bt) - truth.get(bt)) for bt in types) // 2
            if best is None or dist < best:
                best = dist
    assert best is not None, "no falsifying tally exists"
    return best


def brute_force_highest_averages(
    values: Mapping[str, Fraction], seats: int, divisor: Divisor = dhondt
) -> dict[str, int] | None:
    """Independent oracle: score every composition of seats, keep the best.

    The greedy coloring maximizes the summed quotients of colored cells, so
    the optimal composition must match it.  Returns None when two different
    compositions achieve the maximum (an allocation tie).  Exponential in the
    unit count; only for small test instances.
    """
    units = list(values)
    values = {
        u: int(v) if isinstance(v, Fraction) and v.denominator == 1 else v
        for u, v in values.items()
    }
    divisors = [divisor(r) for r in range(1, seats + 1)]
    exact_ints = all(isinstance(values[u], int) for u in units) and all(
        isinstance(d, int) for d in divisors
    )
    scale = math.lcm(*divisors) if exact_ints else None
    prefix = {}
    for u in units:
        acc = [0 if exact_ints else Fraction(0)]
        for d in divisors:
            step = values[u] * (scale // d) if exact_ints else Fraction(values[u]) / d
            acc.append(acc[-1] + step)
        prefix[u] = acc

    best_score = None
    best = None
    tie = False

    def compositions(k: int, remaining: int):
        if k == len(units) - 1:
            yield (remaining,)
            return
        for take in range(remaining + 1):
            for rest in compositions(k + 1, remaining - take):
                yield (take,) + rest

    for comp in compositions(0, seats):
        score = sum(prefix[u][s] for u, s in zip(units, comp))
        if best_score is None or score > best_score:
            best_score, best, tie = score, comp, False
        elif score == best_score:
            tie = True
    if tie:
        return None
    return dict(zip(units, best))


def sample_household(
    h1: Sequence[Household],
    hcen: Sequence[Household],
    hpes: Sequence[Household],
    hsurveyed: Sequence[Household],
    rng,
) -> Household:
    """Draw the next household so the auditor sees a uniform pick from ``h1``.

    With probability |frame ∩ h1| / |h1| the draw is uniform over the
    surveyed households still in ``h1``; otherwise it is uniform over the
    not-in-frame households still in ``h1``.  Because the survey itself chose
    its households uniformly from the frame, the composition is a uniform
    draw from ``h1`` that never lands on an unsurveyed frame household.
    """
    h1_set = set(h1)
    if not h1_set:
        raise ValueError("no households left to sample")
    pes_set = set(hpes)
    everything = set(hcen) | pes_set
    p = len(pes_set & h1_set) / len(h1_set)
    if rng.random() < p:
        pool = sorted(set(hsurveyed) & h1_set, key=lambda h: h.id)
    else:
        pool = sorted((everything - pes_set) & h1_set, key=lambda h: h.id)
    if not pool:
        raise ValueError("sampling frame exhausted: the chosen branch has no household left")
    return pool[int(rng.integers(len(pool)))]


def deal_batches_reference(
    truth: Tally,
    rng,
    sizes: Sequence[int] | None = None,
    size_range: tuple[int, int] = (250, 550),
) -> list[BatchRecord]:
    """Dealing into one ``Tally`` dict per batch: the reference for
    :func:`electaudit.harness.deal_matrix`.

    Batch composition is hypergeometric around the overall vote shares, the
    way single polling places scatter around a national result.  Reported
    tallies start out equal to the truth; inject errors separately.  Without
    explicit ``sizes``, draws are uniform over ``size_range`` with the tail
    merged into the final batch.
    """
    types = sorted(truth.counts, key=lambda bt: bt.name)
    n = truth.total
    deck = np.repeat(np.arange(len(types)), [truth.get(bt) for bt in types])
    rng.shuffle(deck)
    if sizes is None:
        lo, hi = size_range
        if lo < 1:
            raise ValueError(f"batch size range {tuple(size_range)} must start at 1 or more")
        if hi < 2 * lo:
            raise ValueError("size range too narrow: need max >= 2 * min to always partition")
        if n < lo:
            raise ValueError(f"{n} ballots cannot fill a batch of at least {lo}")
        sizes = []
        left = n
        while left > hi:
            # cap at left - lo so the remainder always stays partitionable
            take = min(int(rng.integers(lo, hi + 1)), left - lo)
            sizes.append(take)
            left -= take
        sizes.append(left)
    elif sum(sizes) != n:
        raise ValueError(f"batch sizes sum to {sum(sizes)}, expected {n}")
    batches = []
    offset = 0
    for i, size in enumerate(sizes):
        chunk = deck[offset : offset + size]
        offset += size
        counts = np.bincount(chunk, minlength=len(types))
        tally = Tally({bt: int(c) for bt, c in zip(types, counts)})
        batches.append(BatchRecord(id=f"batch-{i:05d}", reported=tally, truth=tally, size=size))
    return batches


def assorter_from_values(values: Mapping[BallotType, Fraction], upper, label: str = "") -> Assorter:
    """The assorter scoring each type of ``values`` its value: the value map
    written as one integer row over the name-sorted types and handed to the
    one :class:`electaudit.core.Assorter` constructor and its checks."""
    types = tuple(sorted(values, key=lambda bt: bt.name))
    return Assorter(types, *common_denominator(values[bt] for bt in types), upper, label)


def assorter_values(a: Assorter) -> dict[BallotType, Fraction]:
    """The assorter's row as a ``Fraction`` value map."""
    return {bt: Fraction(x, a.den) for bt, x in zip(a.types, a.num.tolist())}


def tally_margin(assorter: Assorter, truth: Tally) -> int:
    """The integer greedy read type by type off a ``Tally``: the reference for
    :func:`electaudit.knesset.relabel_margin` over a row and a count vector.

    Each type of the assorter, counted or not, is valued by its stored
    numerator, so an uncounted type can be the lowest-valued target.
    """
    counts = [truth.get(bt) for bt in assorter.types]
    if sum(counts) != truth.total:
        raise KeyError(f"assorter {assorter.label!r} has no value for a counted ballot type")
    if not truth.total:
        raise ValueError("empty contest: cannot take an assorter mean over zero ballots")
    num = assorter.num.tolist()
    deficit = 2 * sum(x * c for x, c in zip(num, counts)) - assorter.den * truth.total
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


def fraction_margin(assorter: Assorter, truth: Tally) -> int:
    """The ``Fraction`` greedy: the reference for the integer
    :func:`electaudit.knesset.assertion_margin`.

    Relabeling moves one ballot between categories; n stays fixed.  Greedily
    moving ballots from the highest-valued category into the lowest-valued
    one is optimal, since each move's effect is exactly the value difference.
    Returns 0 when the mean is already at most 1/2.
    """
    total = truth.total
    mean = assorter_mean(assorter, truth)
    if mean <= Fraction(1, 2):
        return 0
    deficit = sum(assorter.value(bt) * c for bt, c in truth.counts.items()) - Fraction(total, 2)
    lo = min(assorter_values(assorter).values())
    moves = 0
    by_value = sorted(truth.counts, key=lambda bt: assorter.value(bt), reverse=True)
    for bt in by_value:
        gain = assorter.value(bt) - lo
        count = truth.get(bt)
        if gain <= 0 or count == 0:
            continue
        need = math.ceil(deficit / gain)
        take = min(count, need)
        moves += take
        deficit -= take * gain
        if deficit <= 0:
            return moves
    raise ValueError(
        f"assertion {assorter.label!r} cannot be falsified by relabelling ballots"
    )


def chi_square(counts: Mapping, probs: Mapping, draws: int) -> float:
    """Pearson's statistic of observed ``counts`` against cell ``probs``."""
    assert math.isclose(sum(probs.values()), 1.0) and set(counts) <= set(probs)
    return sum((counts.get(k, 0) - draws * p) ** 2 / (draws * p) for k, p in probs.items())


def draw_order_reference(sizes, rng) -> list[int]:
    """Batch draw order by one ``rng.choice`` per draw over the batches left:
    successive PPS sampling step by step, the law of
    :func:`electaudit.alpha._draw_batches_without_replacement`."""
    sizes = np.asarray(sizes, dtype=np.float64)
    remaining = list(range(len(sizes)))
    order = []
    while remaining:
        weights = sizes[remaining]
        pick = rng.choice(len(remaining), p=weights / weights.sum())
        order.append(remaining.pop(int(pick)))
    return order


def accurate_value(A: BatchAssorter) -> Fraction:
    """The score 1/2 + M/(2(w - M)) of every accurately counted batch."""
    return Fraction(1, 2) + A.M / (2 * (A.w - A.M))


def agree_value(pair: CensusPair) -> Fraction:
    """The score 1/2 + m/(2(z - m)) of every household whose survey agrees."""
    return Fraction(1, 2) + pair.m / (2 * (pair.z - pair.m))


def batchcomp_simplified_step(T: float, A_value: float, mu: float) -> float:
    """The delta-free shortcut update T <- T * A/mu.

    Equivalent to letting the bound U tend to the accurate-batch value from
    above.  Cheap and essentially as powerful on honest errors, but a single
    batch scoring exactly zero (reportedly best possible, truly worst
    possible, which practically indicates malice) kills T for good and forces
    a full recount.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    return T * A_value / mu


def census_assorter_value(pair: CensusPair, household: Household, use_pes: bool):
    """Household-level assorter: g_s1/(c d1) + (g_max - g_s2)/(c d2).

    ``use_pes`` selects the survey count; the census count otherwise.  Exact
    when the pair constants are exact.
    """
    if use_pes:
        if household.pes_count is None:
            raise ValueError(f"household {household.id!r} has no survey count")
        count = household.pes_count
    else:
        count = household.census_count
    g1 = count if household.state == pair.s1 else 0
    g2 = count if household.state == pair.s2 else 0
    return Fraction(g1, pair.d1) / pair.c + Fraction(pair.g_max - g2, pair.d2) / pair.c


def comparison_assorter_value(pair: CensusPair, household: Household):
    """Discrepancy assorter 1/2 + (m + a_pes - a_cen) / (2 (z - m))."""
    pes_count = household.pes_count
    if pes_count is None:
        raise ValueError(f"household {household.id!r} has no survey count")
    diff = Fraction(0)
    if household.state == pair.s1:
        diff = Fraction(pes_count - household.census_count, pair.d1) / pair.c
    elif household.state == pair.s2:
        diff = Fraction(household.census_count - pes_count, pair.d2) / pair.c
    return Fraction(1, 2) + (pair.m + diff) / (2 * (pair.z - pair.m))


def inject_survey_disagreement_reference(
    data: CensusData, rate: float, household_dist: Mapping[int, float], rng
) -> CensusData:
    """Survey disagreement with a ``rng.choice`` redraw for every household,
    kept where the household is hit and surveyed: the reference for
    :func:`electaudit.census.inject_survey_disagreement`."""
    sizes = np.array(sorted(household_dist), dtype=np.int64)
    probs = np.array([household_dist[int(s)] for s in sizes], dtype=np.float64)
    probs = probs / probs.sum()
    hit = rng.random(data.n) < rate
    redrawn = rng.choice(sizes, size=data.n, p=probs)
    pes = np.where(hit & data.has_pes, redrawn, data.pes)
    return CensusData(data.model, data.state_idx, data.cen, pes, data.has_pes, data.in_frame)


def inject_agreeing_disagreement_reference(data, rate, dist, rng, max_tries: int = 50):
    """Each candidate checked by a full recount of its survey totals: the
    reference for :func:`electaudit.harness._inject_agreeing_disagreement`."""
    base = census_mod.apportion(data.model, data.census_pops)
    for _ in range(max_tries):
        candidate = census_mod.inject_survey_disagreement(data, rate, dist, rng)
        if census_mod.apportion(data.model, candidate.state_totals(candidate.pes)) == base:
            return candidate
    raise ValueError("could not inject survey disagreement without changing the seat allocation")


def hand_derived_assorter(
    contest: Contest, label: str, seats: Mapping[str, int] = {}, threshold: Fraction = Fraction(0)
) -> Assorter:
    """The assorter of a plurality or Knesset assertion from its hand-derived
    value map: the oracle for the assertions built from their inequalities.

    ``label`` names the assertion as the generators do; ``seats`` gives the
    reported seats of every party a move-seat label names, and ``threshold``
    the threshold share t of a threshold label.

    * ``plurality:W>L``: 1 for W, 0 for L, 1/2 for every other type.
    * ``above-threshold:p``: 1/(2t) for p, 1/2 for invalid ballots, 0 for the
      other parties.
    * ``below-threshold:p``: 0 for p, 1/2 for invalid ballots, 1/(2(1 - t))
      for the other parties.
    * ``no-seat-move:K->G``: 1/2 + (s_G + 1)/(2 s_K) for K's members, 0 for
      G's, 1/2 for every other type; the one-seat form 1/2 + (s_G + 2)/(2 (s_K - 1)).
    """
    half = Fraction(1, 2)
    kind, _, rest = label.partition(":")
    if kind == "plurality":
        winner, loser = rest.split(">")
        scores = {winner: Fraction(1), loser: Fraction(0)}
        values = {bt: scores.get(bt.name, half) for bt in contest.ballot_types}
    elif kind in ("above-threshold", "below-threshold"):
        high = 1 / (2 * threshold) if kind == "above-threshold" else 1 / (2 * (1 - threshold))
        party, others = (high, Fraction(0)) if kind == "above-threshold" else (Fraction(0), high)
        values = {
            bt: half if bt.is_invalid else party if bt.name == rest else others
            for bt in contest.ballot_types
        }
    else:
        one_seat = rest.endswith(" (one-seat)")
        keeper, gainer = (u.split("+") for u in rest.removesuffix(" (one-seat)").split("->"))
        s_g, s_k = (sum(seats[p] for p in u) for u in (gainer, keeper))
        high = half + Fraction(s_g + 1 + one_seat, 2 * (s_k - one_seat))
        values = {
            bt: high if bt.name in keeper else Fraction(0) if bt.name in gainer else half
            for bt in contest.ballot_types
        }
    return assorter_from_values(values, max(values.values()), label)


@dataclass(frozen=True)
class LinearInequality:
    """A tally constraint sum_c beta_c * v(c) > d (``rhs``) over n ballots,
    exact: ints stay ints, other numbers become ``Fraction``.  ``n`` is read
    only when d is nonzero; a comparison does not depend on the ballot count."""

    coefficients: Mapping[BallotType, int | Fraction]
    rhs: int | Fraction = 0
    n: int | None = None
    label: str = ""

    def __post_init__(self):
        exact = lambda v: v if isinstance(v, (int, Fraction)) else Fraction(v)
        object.__setattr__(
            self, "coefficients", {bt: exact(b) for bt, b in self.coefficients.items()}
        )
        object.__setattr__(self, "rhs", exact(self.rhs))
        if self.rhs and (self.n is None or self.n <= 0):
            raise ValueError("ballot count n must be positive")
        if not any(self.coefficients.values()):
            raise ValueError("inequality needs at least one nonzero coefficient")

    def holds(self, tally: Tally) -> bool:
        lhs = sum(self.coefficients[bt] * tally.get(bt) for bt in self.coefficients)
        return lhs > self.rhs


def inequality_to_assorter(q: LinearInequality) -> Assorter:
    """Convert a linear tally inequality into an equivalent assorter: the row
    oracle of the assorters the package writes straight as integer rows.

    Write the coefficients as integers b_c over their common denominator L
    and L d / n = p / r in lowest terms; the inequality is then the integer
    row b over the name-sorted types with threshold p / r, which
    :func:`electaudit.core.integer_row_assorter` converts.
    """
    types, beta = zip(*sorted(q.coefficients.items(), key=lambda c: c[0].name))
    b, L = common_denominator(beta)
    p, r = Fraction(q.rhs * L, q.n).as_integer_ratio() if q.rhs else (0, 1)
    return integer_row_assorter(types, b, q.label, p, r)


def load_batches_reference(path, contest: Contest, declared_sizes=None) -> BatchMatrix:
    """A batch CSV read as records: one reported and one true ``Tally`` per
    batch over ``contest``, each padded with invalid ballots up to the batch
    size, then :func:`electaudit.core.batch_matrix`.  The reference for
    :func:`electaudit.batchcomp.load_batches_csv`."""
    per_batch: dict[str, dict[str, tuple[int, int]]] = {}
    columns = ("batch_id", "party", "reported_votes", "true_votes")
    for bid, party, rep, true in read_csv(path, columns, dict.fromkeys(columns[2:], int)):
        cell = per_batch.setdefault(bid, {})
        if party in cell:
            raise ValueError(f"{path}: duplicate row for batch {bid!r} party {party!r}")
        cell[party] = (rep, true)
    absent = sorted(set(declared_sizes or ()) - set(per_batch))
    if absent:
        raise ValueError(f"{path}: declared size for batch {', '.join(map(repr, absent))} "
                         "absent from the batch file")
    batches = []
    for bid in sorted(per_batch):
        reported, truth = (contest.tally({p: rt[i] for p, rt in per_batch[bid].items()})
                           for i in (0, 1))
        size = (declared_sizes or {}).get(bid, max(reported.total, truth.total))
        BatchRecord(bid, reported, truth, size)  # rejects a size of 0
        if size < reported.total or size < truth.total:
            raise ValueError(f"batch overflow: batch {bid!r} holds more ballots than declared "
                             f"size {size}")
        invalid = contest.invalid
        pad = lambda t: Tally({**t.counts, invalid: t.get(invalid) + size - t.total})
        batches.append(BatchRecord(bid, pad(reported), pad(truth), size))
    return batch_matrix(batches)


@dataclass(frozen=True)
class Household:
    """One row of a household CSV, the input of the exact census references."""

    id: str
    state: str
    census_count: int
    pes_count: int | None = None
    in_pes_frame: bool = True

    @property
    def surveyed(self) -> bool:
        return self.pes_count is not None


def census_data(model: CensusModel, households: Sequence[Household]) -> CensusData:
    """Columns of a household list: the reference for
    :func:`electaudit.census.load_households_csv`."""
    state_index = {s: i for i, s in enumerate(model.states)}
    ids = set()
    for h in households:
        if h.id in ids:
            raise ValueError(f"duplicate household id {h.id!r}")
        ids.add(h.id)
        if h.state not in state_index:
            raise ValueError(f"household {h.id!r} names unknown state {h.state!r}")
    return CensusData(
        model,
        [state_index[h.state] for h in households],
        [h.census_count for h in households],
        [h.census_count if h.pes_count is None else h.pes_count for h in households],
        [h.surveyed for h in households],
        [h.in_pes_frame for h in households],
    )


def by_value(loaded):
    """A ``BatchMatrix`` as its types and arrays, a ``CensusData`` as its
    columns, in lists that ``==`` compares by value (it compares the objects
    themselves by identity); anything else as it is."""
    if isinstance(loaded, BatchMatrix):
        return loaded.types, [a.tolist() for a in (loaded.reported, loaded.truth, loaded.sizes)]
    if isinstance(loaded, CensusData):
        columns = (loaded.state_idx, loaded.cen, loaded.pes, loaded.has_pes, loaded.in_frame)
        return [a.tolist() for a in columns]
    return loaded


def check_risk_limit_is_largest_pair_risk(out: Path) -> None:
    """In a census run's tables under ``out``, each (sample fraction, trial)
    row's risk limit in ``risk_curve.csv`` is the largest of that row's
    ``pair_risks.csv`` risks."""
    with open(out / "risk_curve.csv", newline="", encoding="utf-8") as f:
        curve = {(r["sample_fraction"], r["trial"]): float(r["risk_limit"]) for r in csv.DictReader(f)}
    largest: dict[tuple[str, str], float] = {}
    with open(out / "pair_risks.csv", newline="", encoding="utf-8") as f:
        for r in csv.DictReader(f):
            key = (r["sample_fraction"], r["trial"])
            largest[key] = max(largest.get(key, 0.0), float(r["risk_limit"]))
    assert largest == curve


def household_files(tmp_path) -> tuple[Path, Path]:
    """Districts X, Y, Z and 90 households: every third surveyed, five of
    those disagreeing with the census, and every seventh unsurveyed one
    outside the survey frame."""
    districts = tmp_path / "districts.csv"
    districts.write_text("district,population,c_constant\nX,120,0\nY,80,1/2\nZ,50,0\n")
    rows = ["household_id,district,census_count,pes_count,surveyed,in_frame"]
    for i in range(90):
        cen = 1 + (i * 5 + i // 4) % 4
        surveyed = i % 3 == 0
        pes = cen + (i % 27 == 0) - (i % 33 == 0) if surveyed else ""
        frame = "" if surveyed or i % 7 else "0"
        rows.append(f"h{i:02d},{'XXXYYZ'[i % 6]},{cen},{pes},{int(surveyed)},{frame}")
    households = tmp_path / "households.csv"
    households.write_text("\n".join(rows) + "\n")
    return districts, households
