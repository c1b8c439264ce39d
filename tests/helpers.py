"""Shared test utilities: tally enumeration and small brute-force and reference oracles."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Mapping, Sequence

from electaudit.alpha import AssertionState, AuditConfig
from electaudit.apportionment import Divisor, dhondt
from electaudit.census import Household
from electaudit.core import Assorter, BatchRecord, Contest, Tally, assorter_mean


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


def ballot_batch(truth: Tally) -> list[BatchRecord]:
    """The true ballots as the one padded batch ``alpha_audit`` takes.

    The audit lays a batch's ballots out by type name, so this is the ballot
    list ``[A] * a + [B] * b + ...`` with the names in sorted order.
    """
    return [BatchRecord("ballots", truth, truth, truth.total)]


def advance(
    state: AssertionState,
    value: float,
    weight: int,
    n: int,
    cfg: AuditConfig,
    eta_floor: float | None,
) -> None:
    """One update of the sequential test, the step-by-step reference for
    :func:`electaudit.alpha.sequential_path`: T from the current (mu, eta, u),
    then the forward guesses.

    ``eta_floor`` of None selects the remaining-reported-mean rule driven by
    ``state.eta_budget``; a float selects the fixed-target rule used by the
    comparison audits.  The guesses are refreshed in the order mu, eta, u so
    each uses the value just computed before it.
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
        state.eta = max(state.mu + cfg.epsilon, target)
        state.u = max(state.u, state.eta + cfg.epsilon)
        if state.mu < 0:
            state.active = False
            state.approved = True


def alpha_step(
    state: AssertionState, value: float, cfg: AuditConfig, n: int, reported_mean: float
) -> AssertionState:
    """Consume one ballot worth ``value`` under the remaining-reported-mean
    rule; mutates and returns ``state``."""
    state.eta_budget = n * reported_mean
    advance(state, value, 1, n, cfg, eta_floor=None)
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
