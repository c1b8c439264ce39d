"""Sequential supermartingale test over single ballots, plus the batch-polling baseline.

Each assertion keeps a statistic T, the inverse of a p-value for the null
that its assorter mean is at most 1/2.  Drawing a ballot worth ``a`` updates

    T <- T * (1/u) * ( a * eta / mu  +  (u - a) * (u - eta) / (u - mu) )

where ``mu`` is the mean of the remaining ballots under the null, ``eta`` the
mean of the remaining ballots if the reported tally is exact, and ``u`` a
bound kept strictly above ``eta``.  An assertion is approved once T exceeds
1/alpha, or with certainty once ``mu`` goes negative (the ballots already
seen force the full mean above 1/2 no matter what remains).

One kernel, :func:`sequential_path`, runs this test for every audit in the
package: it takes one assertion's whole draw sequence and computes T as a
running product of the factors above, with mu, eta and u from running sums.
The ballot-level audit, both batch audits and the census audit call it.
:func:`alpha_step` is the step-by-step reference it is tested against; it
writes the same factor in the equivalent form
``(a / mu) * (eta - mu) / (u - mu) + (u - eta) / (u - mu)``.

The batch variant draws whole batches with probability proportional to size
and feeds each batch's true assorter mean through the same test, with the
running sums weighted by batch size.  It uses only the overall reported
tally, never per-batch reported tallies; the comparison audit that does use
them lives in :mod:`electaudit.batchcomp`.

Both audits here take a batch list and read it once as integer count
matrices (:func:`electaudit.core.batch_matrix`).  The ballot-level audit
expands the true counts into one type index per ballot; the batch variant
gets every true batch mean of an assertion from one integer matrix product.
Each value is the float of its exact ``Fraction``, which stays the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import Assorter, BatchRecord, Tally, assorter_mean, batch_matrix, batch_means
from .randomness import Seed, make_rng

TraceHook = Callable[[int, str, float, float, float, float], None]

_HALF = Fraction(1, 2)


@dataclass
class AuditConfig:
    """Risk limit, the epsilon keeping mu < eta < u strict, and the shuffle seed."""

    alpha: float
    epsilon: float = 1e-9
    seed: Seed = 0

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise ValueError("risk limit alpha must be in (0, 1]")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


@dataclass
class AssertionState:
    """Mutable per-assertion test state; one instance per assorter.

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


@dataclass(frozen=True)
class AssertionOutcome:
    label: str
    approvable: bool
    approved: bool
    examined: int
    batches_examined: int | None = None
    truly_satisfied: bool | None = None


@dataclass(frozen=True)
class AuditOutcome:
    approved: bool
    full_count: bool
    ballots_examined: int
    total_ballots: int
    assertions: tuple[AssertionOutcome, ...]


def alpha_init(
    assorters: Sequence[Assorter], reported: Tally, n: int, cfg: AuditConfig
) -> list[AssertionState]:
    """Fresh test states: T=1, mu=1/2, u the assorter bound, eta the reported mean.

    An assertion whose reported mean is at most 1/2 is flagged un-approvable:
    the reported results themselves refute it, so the audit can only end in a
    full recount.  A reported mean at or above the upper bound leaves no room
    for mu < eta < u and is rejected outright.
    """
    if n <= 0:
        raise ValueError("ballot count must be positive")
    if reported.total != n:
        raise ValueError(f"reported tally covers {reported.total} ballots, expected {n}")
    states = []
    for a in assorters:
        eta = float(assorter_mean(a, reported))
        u = float(a.upper)
        state = AssertionState(label=a.label, eta=eta, u=u, eta_budget=n * eta)
        if eta <= 0.5:
            state.approvable = False
            state.active = False
        elif eta >= u:
            raise ValueError(
                f"degenerate assorter {a.label!r}: reported mean {eta} reaches its upper bound {u}"
            )
        states.append(state)
    return states


def _advance(
    state: AssertionState,
    value: float,
    weight: int,
    n: int,
    cfg: AuditConfig,
    eta_floor: float | None,
) -> None:
    """One update: T from the current (mu, eta, u), then the forward guesses.

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
    """Consume one ballot worth ``value``; mutates and returns ``state``."""
    state.eta_budget = n * reported_mean
    _advance(state, value, 1, n, cfg, eta_floor=None)
    return state


class SequentialPath(NamedTuple):
    """One assertion's test run by :func:`sequential_path`.

    ``T[j]`` is T after draw j+1; ``mu[j]``, ``eta[j]`` and ``u[j]`` are the
    values that draw j+1 was tested with.  The arrays stop at the last draw
    examined.
    """

    approved: bool
    examined: int  # draws taken
    T_max: float
    T: np.ndarray
    mu: np.ndarray
    eta: np.ndarray
    u: np.ndarray


def sequential_path(
    x: np.ndarray,
    seen: np.ndarray,
    n: int,
    eta0: float,
    u0: float,
    eps: float,
    threshold: float,
    eta_floor: float | None = None,
) -> SequentialPath:
    """The sequential test over one assertion's draws, in array form.

    ``x[j]`` is the value of draw j+1 and ``seen[j]`` the ballots examined
    after it (strictly increasing, at most ``n``), so a draw weighs
    ``seen[j] - seen[j-1]`` ballots.  ``eta_floor`` of None selects the
    remaining-reported-mean guess with ``eta0`` as the reported mean; a float
    selects the fixed target of the comparison audits.  The test approves on
    the first draw after which T exceeds ``threshold``, or after which mu
    falls below 0 while ballots remain.

    Each quantity is the one :func:`_advance` computes step by step: mu and
    eta depend on past draws only through their running weighted sum, u is a
    running max, and T a running product of the factors
    ``(1/u) (x eta/mu + (u - x)(u - eta)/(u - mu))``.
    """
    m = len(x)
    if m == 0:
        return SequentialPath(False, 0, 1.0, x, x, x, x)
    if seen[-1] == m:  # one ballot per draw
        S = np.cumsum(x)
    else:
        S = np.cumsum(x * np.diff(seen, prepend=0))
    # Entry i of mu/eta/u is the state after i draws, which draw i+1 is
    # tested with; no state follows a draw that exhausts the ballots.  The
    # arrays are filled in place to keep full-length temporaries few.
    k = m if seen[-1] < n else m - 1
    mu, eta, u = np.empty(m + 1), np.empty(m + 1), np.empty(m + 1)
    mu[0], eta[0], u[0] = 0.5, eta0, u0
    mu_next, eta_next, u_next = mu[1 : k + 1], eta[1 : k + 1], u[1 : k + 1]
    remaining = u_next
    np.subtract(n, seen[:k], out=remaining)
    np.subtract(0.5 * n, S[:k], out=mu_next)
    mu_next /= remaining
    if eta_floor is None:
        np.subtract(n * eta0, S[:k], out=eta_next)
        eta_next /= remaining
    else:
        eta_next.fill(eta_floor)
    np.maximum(np.add(mu_next, eps, out=u_next), eta_next, out=eta_next)
    np.add(eta_next, eps, out=u_next)
    np.maximum.accumulate(u[: k + 1], out=u[: k + 1])

    mu, eta, u = mu[:m], eta[:m], u[:m]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        T = np.multiply(x, eta)
        T /= mu
        rest = np.subtract(u, x, out=S)  # the running sum is no longer needed
        scratch = np.subtract(u, eta)
        rest *= scratch
        rest /= np.subtract(u, mu, out=scratch)
        T += rest
        T *= np.divide(1.0, u, out=scratch)
        # mu exactly 0: a positive draw is infinite evidence, a zero one is not
        zero = np.flatnonzero(mu == 0.0)
        T[zero] = np.where(x[zero] > 0, np.inf, (u[zero] - eta[zero]) / (u[zero] - mu[zero]))
        np.cumprod(T, out=T)

    stop = m
    for hit in (T > threshold, mu_next < 0):
        hit = hit[:stop]
        if hit.any():
            stop = int(hit.argmax())
    approved = stop < m
    examined = stop + 1 if approved else m
    T_max = max(1.0, float(T[:examined].max()))
    return SequentialPath(
        approved, examined, T_max, T[:examined], mu[:examined], eta[:examined], u[:examined]
    )


def _emit_trace(trace: TraceHook, label: str, path: SequentialPath) -> None:
    """One row per examined draw: its number, T after it, the state it was tested with."""
    rows = zip(path.T.tolist(), path.mu.tolist(), path.eta.tolist(), path.u.tolist())
    for j, (T, mu, eta, u) in enumerate(rows, start=1):
        trace(j, label, T, mu, eta, u)


def conclude_audit(
    results: list[AssertionOutcome],
    assorters: Sequence[Assorter],
    n: int,
    truth: Callable[[], Tally],
) -> AuditOutcome:
    """The audit's outcome; unless every assertion was approved it ends in a
    full count, which reveals whether each assertion truly holds."""
    approved = all(r.approved for r in results)
    if approved:
        examined = max((r.examined for r in results), default=0)
    else:
        examined = n
        full = truth()
        results = [
            replace(r, truly_satisfied=assorter_mean(a, full) > _HALF)
            for r, a in zip(results, assorters)
        ]
    return AuditOutcome(approved, not approved, examined, n, tuple(results))


def alpha_audit(
    batches: Sequence[BatchRecord],
    assorters: Sequence[Assorter],
    reported: Tally,
    cfg: AuditConfig,
    trace: TraceHook | None = None,
) -> AuditOutcome:
    """Audit every true ballot of the padded batches against the reported tally.

    The ballots are taken in batch order, and within a batch by type name.
    They are drawn without replacement via a seeded shuffle and consumed in
    order.  Returns per-assertion approval and the ballots examined when each
    was approved; the overall outcome is approved only if every assertion is.
    Failing to approve is not an error: the audit then ends in a full count
    and reports the truth it found.
    """
    m = batch_matrix(batches)
    n = int(m.sizes.sum())
    states = alpha_init(assorters, reported, n, cfg)
    rng = make_rng(cfg.seed)

    values = np.array(
        [[float(a.value(bt)) for bt in m.types] for a in assorters], dtype=np.float64
    )
    type_idx = np.repeat(np.tile(np.arange(len(m.types)), len(batches)), m.truth.ravel())
    drawn = type_idx[rng.permutation(n)]
    del type_idx
    seen = np.arange(1, n + 1)

    results: list[AssertionOutcome] = []
    for k, st in enumerate(states):
        if not st.approvable:
            results.append(AssertionOutcome(st.label, False, False, n))
            continue
        path = sequential_path(
            values[k][drawn], seen, n, st.eta, st.u, cfg.epsilon, 1.0 / cfg.alpha
        )
        if trace is not None:
            _emit_trace(trace, st.label, path)
        results.append(AssertionOutcome(st.label, True, path.approved, path.examined))
        del path  # frees its n-length arrays before the next assertion's

    return conclude_audit(results, assorters, n, lambda: m.combined(m.truth))


def _draw_batches_without_replacement(batches: Sequence[BatchRecord], rng) -> list[int]:
    """Order of batch indices, each drawn with probability proportional to size."""
    sizes = np.array([b.size for b in batches], dtype=np.float64)
    remaining = list(range(len(batches)))
    order = []
    while remaining:
        weights = sizes[remaining]
        pick = rng.choice(len(remaining), p=weights / weights.sum())
        order.append(remaining.pop(int(pick)))
    return order


def batch_audit_loop(
    batches: Sequence[BatchRecord],
    states: list[AssertionState],
    batch_values: np.ndarray,
    n: int,
    cfg: AuditConfig,
    eta_floors: Sequence[float | None],
    trace: TraceHook | None = None,
) -> list[AssertionOutcome]:
    """Shared engine for both batch audits; they differ in values and eta rule.

    Batches are drawn once, with probability proportional to size, and every
    assertion is tested along that one draw order.
    """
    rng = make_rng(cfg.seed)
    order = _draw_batches_without_replacement(batches, rng)
    seen = np.cumsum([batches[i].size for i in order])
    results = []
    for k, st in enumerate(states):
        approved, examined, batches_at = False, n, len(batches)
        if st.approvable:
            path = sequential_path(
                batch_values[k, order], seen, n, st.eta, st.u, cfg.epsilon,
                1.0 / cfg.alpha, eta_floors[k],
            )
            if trace is not None:
                _emit_trace(trace, st.label, path)
            if path.approved:
                approved, batches_at = True, path.examined
                examined = int(seen[batches_at - 1])
        results.append(
            AssertionOutcome(st.label, st.approvable, approved, examined, batches_examined=batches_at)
        )
    return results


def alpha_batch_audit(
    batches: Sequence[BatchRecord],
    assorters: Sequence[Assorter],
    reported: Tally,
    cfg: AuditConfig,
    trace: TraceHook | None = None,
) -> AuditOutcome:
    """Batch-polling audit: the ballot-level test fed with true batch means.

    Sampling units are whole batches, drawn with probability proportional to
    size; the null mean stays ballot-denominated, so each draw enters with its
    batch size as weight.  The upper bound starts at the ballot-level assorter
    bound, which is what makes this baseline slow: per-batch means hug the
    overall mean far below that bound, so T moves in tiny steps.
    """
    m = batch_matrix(batches)
    n = int(m.sizes.sum())
    totals = m.reported.sum(axis=0).tolist()
    if reported.total != n or [reported.get(bt) for bt in m.types] != totals:
        raise ValueError("overall reported tally is inconsistent with the batch tallies")
    states = alpha_init(assorters, reported, n, cfg)
    batch_values = np.array([batch_means(a, m, m.truth) for a in assorters])
    results = batch_audit_loop(batches, states, batch_values, n, cfg, [None] * len(states), trace)
    return conclude_audit(results, assorters, n, lambda: m.combined(m.truth))


def combined_reported(batches: Sequence[BatchRecord]) -> Tally:
    m = batch_matrix(batches)
    return m.combined(m.reported)
