"""Sequential supermartingale test over single ballots, plus the batch-polling baseline.

Each assertion keeps a statistic T, the inverse of a p-value for the null
that its assorter mean is at most 1/2.  Drawing a ballot worth ``a`` updates

    T <- T * (1/u) * ( a * eta / mu  +  (u - a) * (u - eta) / (u - mu) )

where ``mu`` is the mean of the remaining ballots under the null, ``eta`` the
mean of the remaining ballots if the reported tally is exact, and ``u`` a
bound kept strictly above ``eta``.  An assertion is approved once T exceeds
1/alpha, or with certainty once ``mu`` goes negative (the ballots already
seen force the full mean above 1/2 no matter what remains).

One kernel, :func:`sequential_test`, runs this test for every audit in the
package: it takes one assertion's draw sequence and its start, an
:class:`AssertionSpec`, and computes T as a running product of the factors
above, with mu, eta and u from running sums.  The ballot-level audit, both
batch audits and the census audit call it, the two comparison audits with
the start of :func:`comparison_spec`.  The step-by-step reference it is
tested against lives in ``tests/helpers.py``; it writes the same factor in
the equivalent form ``(a / mu) * (eta - mu) / (u - mu) + (u - eta) / (u - mu)``.

The kernel evaluates the draws block by block, ``_BLOCK`` draws at a time,
and stops after the first block that holds the stop, so an assertion that
approves early costs one block, not the whole sequence.  Between blocks it
carries the running weighted sum S, the (mu, eta, u) the next draw is tested
with, T and the max of T.  Each carry enters where a single pass would have
used it: S heads the next block's weighted values in its ``cumsum``, T
multiplies its first factor before its ``cumprod``, and the carried u heads
the block's running max of u.  Where u does not grow after a block's entry 1
(almost every block in the shipped workloads) it is that one float: the
factors use it and 1/u once, with no u array and no running max, and entry
0's factor is computed again with the carried u if u stepped after it.
Running sums, products and maxima go left to right, and a scalar u equals
each entry of the array it replaces, so every element goes through the same
float operations in the same order as in one pass: the result is identical
bit for bit.  The kernel holds one block's arrays at a time; a trace hook
gets the T/mu/eta/u rows of each block's examined draws before the next
block is evaluated.

The batch variant draws whole batches with probability proportional to size,
all at once by sorting exponential keys, and feeds each batch's true
assorter mean through the same test, with the running sums weighted by batch
size.  It uses only the overall reported tally, never per-batch reported
tallies; the comparison audit that does use them lives in
:mod:`electaudit.batchcomp`.

Both audits here, like the batch-comparison audit, take only the trial's
one batch store, a :class:`electaudit.core.BatchMatrix`: the reported tally
is the column sum of its reported counts.  They read each assorter's stored
integer row ``(num, den)`` over its type index
(:meth:`electaudit.core.Assorter.row`).  The ballot-level audit expands the
true counts into one type index per ballot, shuffles it once, and hands the
kernel each block's values as a gather from that order, so no full-length
value row is built; the batch variant gets every true batch mean of an
assertion from one integer matrix product of the counts and the row.  The
reported mean eta and the full count's verdict are integer dot products of
the row with the column sums.  Each value is the float of its exact
``Fraction``, which stays the reference.  Each test starts from an
immutable :class:`AssertionSpec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import Assorter, BallotType, BatchMatrix, BatchRecord, Tally, batch_matrix
from .core import exact_matmul, exact_quotients
from .randomness import Seed, make_rng

_HALF = Fraction(1, 2)

TraceHook = Callable[[int, str, float, float, float, float], None]


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


class AssertionSpec(NamedTuple):
    """One assertion's test start: the first guess ``eta`` and bound ``u``;
    ``eta_floor`` as in :func:`sequential_test`.  An un-approvable one is not tested."""

    label: str
    eta: float
    u: float
    approvable: bool
    eta_floor: float | None = None


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


def alpha_init(assorters: Sequence[Assorter], m: BatchMatrix) -> list[AssertionSpec]:
    """Each assertion's start: eta the mean over the reported counts of ``m``,
    u the assorter bound.

    An assertion whose reported mean is at most 1/2 is flagged un-approvable:
    the reported results themselves refute it, so the audit can only end in a
    full recount.  A reported mean at or above the upper bound leaves no room
    for mu < eta < u and is rejected outright.
    """
    n = int(m.sizes.sum())
    sums = _exact_sums(assorters, m.types, m.reported.sum(axis=0).tolist())
    specs = []
    for a, (S, den) in zip(assorters, sums):
        eta = S / (den * n)  # int / int is correctly rounded: the float of the exact mean
        u = float(a.upper)
        if eta > 0.5 and eta >= u:
            raise ValueError(
                f"degenerate assorter {a.label!r}: reported mean {eta} reaches its upper bound {u}"
            )
        specs.append(AssertionSpec(a.label, eta, u, eta > 0.5))
    return specs


def _exact_sums(
    assorters: Sequence[Assorter], types: Sequence[BallotType], counts: Sequence[int]
) -> list[tuple[int, int]]:
    """``(S, den)`` per assorter, ``S / den`` its exact sum over ``counts[i]``
    ballots of ``types[i]`` in Python ints.  A type counted zero times needs
    no value."""
    kept = [(bt, int(c)) for bt, c in zip(types, counts) if c]
    rows = (a.row([bt for bt, _ in kept]) for a in assorters)
    return [(sum(x * c for x, (_, c) in zip(num.tolist(), kept)), den) for num, den in rows]


# Draws evaluated per block.  A block's arrays stay in L2 cache, and a test
# that stops early wastes at most one block of work.
_BLOCK = 8192


class _Gather:
    """``values[index]`` one slice at a time, so no full value row is built."""

    def __init__(self, values: np.ndarray, index: np.ndarray):
        self.values, self.index = values, index

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, s: slice) -> np.ndarray:
        return self.values[self.index[s]]


def comparison_spec(label: str, M: Fraction, w: Fraction, delta: float) -> AssertionSpec:
    """The comparison audits' start for a reported margin M and a bound w > M:
    eta fixed at the accurate value 1/2 + M/(2(w - M)) and u the sliver
    delta/(2(w - M)) above it, each the float of its exact value.  A small
    delta makes accurate audits fast; it only costs efficiency when the
    reported tallies are wildly wrong."""
    scale = 2 * (w - M)
    eta = float(_HALF + M / scale)
    return AssertionSpec(label, eta, float(_HALF + (M + Fraction(delta)) / scale), True, eta)


def sequential_test(
    x,
    seen: np.ndarray,
    n: int,
    spec: AssertionSpec,
    eps: float,
    threshold: float,
    trace: TraceHook | None = None,
) -> tuple[bool, int, float]:
    """The sequential test of one assertion over its draws: (approved, examined, T_max).

    ``x[j]`` is the value of draw j+1 and ``seen[j]`` the ballots examined
    after it (strictly increasing, at most ``n``), so a draw weighs
    ``seen[j] - seen[j-1]`` ballots.  ``x`` is an array, or anything whose
    slice ``x[i:j]`` is the array of draws i+1..j.  The test starts from
    ``spec.eta`` and ``spec.u``; ``spec.eta_floor`` of None selects the
    remaining-reported-mean guess with ``spec.eta`` as the reported mean, and
    a float selects the fixed target of the comparison audits.  It approves
    on the first draw after which T exceeds ``threshold``, or after which mu
    falls below 0 while ballots remain.

    Each quantity is the one the step-by-step reference in the tests
    (``tests/helpers.py``, ``advance``) computes: mu and eta depend on past
    draws only through their running weighted sum, u is a running max, and
    T a running product of the factors
    ``(1/u) (x eta/mu + (u - x)(u - eta)/(u - mu))``.

    The draws are evaluated in blocks of ``_BLOCK``, and no block after the
    one holding the stop is evaluated.  A block's u is one float where it
    does not grow after entry 1, and entry 0's factor is computed again with
    the carried u if u stepped after it.  A ``trace`` hook gets one call per
    examined draw, block by block: ``trace(j, spec.label, T, mu, eta, u)``
    with the draw's number, T after it and the state it was tested with.
    """
    m = len(x)
    unit = m > 0 and seen[-1] == m  # one ballot per draw
    eta0, eta_floor = spec.eta, spec.eta_floor
    state, u_carry = (0.5, eta0), spec.u  # the (mu, eta, u) the next draw is tested with
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
        mu, eta, scratch = np.empty(b + 1), np.empty(b + 1), np.empty(b + 1)
        mu[0], eta[0] = state
        mu_next, eta_next = mu[1 : k + 1], eta[1 : k + 1]
        remaining = np.subtract(n, seen[i : i + k], out=scratch[:k])
        np.subtract(0.5 * n, S[:k], out=mu_next)
        mu_next /= remaining
        if eta_floor is None:
            np.subtract(n * eta0, S[:k], out=eta_next)
            eta_next /= remaining
        else:
            eta_next.fill(eta_floor)
        np.maximum(np.add(mu_next, eps, out=remaining), eta_next, out=eta_next)
        # u, the running max of eta + eps after the carried u, stays the scalar u1
        # unless max(eta) + eps passes it (rounding is monotone; False for NaN)
        u = u1 = np.maximum(u_carry, eta_next[0] + eps) if k else u_carry
        if k and not eta_next.max() + eps <= u1:
            scratch[0], scratch[1 : k + 1] = u_carry, eta_next + eps
            np.maximum.accumulate(scratch[: k + 1], out=scratch[: k + 1])
            u, u1 = scratch[:b], scratch[k]
        scan = not mu[: k + 1].min() > 0  # for mu exactly 0 and the mu < 0 stop
        # mu[b] is unset only when draw j exhausts the ballots, and no block follows
        S_carry, state = S[-1], (mu[b], eta[b])

        mu, eta = mu[:b], eta[:b]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            T = _factors(xb, mu, eta, u, scan)
            if np.isscalar(u) and u_carry != u1:  # draw i+1 is tested with the carried u
                T[:1] = _factors(xb[:1], mu[:1], eta[:1], u_carry, scan)
            if i:  # the carried T times the first factor, as in one pass
                T[0] *= T_carry
            np.cumprod(T, out=T)

        hit = T > threshold
        if scan:
            hit[:k] |= mu_next < 0
        stop = int(hit.argmax()) if hit.any() else b
        e = min(stop + 1, b)  # draws of this block examined
        peak = np.maximum(peak, T[:e].max()) if i else T[:e].max()
        if trace is not None:
            us = [float(u_carry)] + [float(u1)] * (e - 1) if np.isscalar(u) else u[:e].tolist()
            rows = zip(T[:e].tolist(), mu[:e].tolist(), eta[:e].tolist(), us)
            for step, row in enumerate(rows, start=i + 1):
                trace(step, spec.label, *row)
        if stop < b:
            return True, i + e, max(1.0, float(peak))
        T_carry, u_carry = T[-1], u1
    return False, m, max(1.0, float(peak))


def _factors(x, mu, eta, u, scan: bool) -> np.ndarray:
    """The factors ``(x eta/mu + (u - x)(u - eta)/(u - mu)) * (1/u)``; u an array or one float."""
    f = x * eta
    f /= mu
    f += (u - x) * (u - eta) / (u - mu)
    f *= np.divide(1.0, u)
    if scan:  # mu exactly 0: a positive draw is infinite evidence, a zero one is not
        f[mu == 0.0] = np.where(x > 0, np.inf, (u - eta) / (u - mu))[mu == 0.0]
    return f


def conclude_audit(
    results: list[AssertionOutcome], assorters: Sequence[Assorter], m: BatchMatrix
) -> AuditOutcome:
    """The audit's outcome; unless every assertion was approved it ends in a
    full count, which reveals whether each assertion truly holds.

    The full count is the column sum of ``m.truth``, and an assertion holds
    when its exact sum over it exceeds half the ballots.
    """
    n = int(m.sizes.sum())
    approved = all(r.approved for r in results)
    if approved:
        examined = max((r.examined for r in results), default=0)
    else:
        examined = n
        sums = _exact_sums(assorters, m.types, m.truth.sum(axis=0).tolist())
        results = [
            replace(r, truly_satisfied=2 * S > den * n) for r, (S, den) in zip(results, sums)
        ]
    return AuditOutcome(approved, not approved, examined, n, tuple(results))


def alpha_audit(
    m: BatchMatrix,
    assorters: Sequence[Assorter],
    cfg: AuditConfig,
    trace: TraceHook | None = None,
) -> AuditOutcome:
    """Audit every true ballot of the batches ``m`` against their reported counts.

    The ballots are taken in batch order, and within a batch by type name.
    They are drawn without replacement via a seeded shuffle and consumed in
    order.  Returns per-assertion approval and the ballots examined when each
    was approved; the overall outcome is approved only if every assertion is.
    Failing to approve is not an error: the audit then ends in a full count
    and reports the truth it found.
    """
    n = int(m.sizes.sum())
    specs = alpha_init(assorters, m)
    rng = make_rng(cfg.seed)

    ones = np.ones(len(m.types), dtype=np.int64)
    values = np.array([exact_quotients(*a.row(m.types), ones) for a in assorters])
    type_idx = np.repeat(np.tile(np.arange(len(m.types)), len(m)), m.truth.ravel())
    drawn = type_idx[rng.permutation(n)]
    del type_idx
    seen = np.arange(1, n + 1)

    results: list[AssertionOutcome] = []
    for k, spec in enumerate(specs):
        if not spec.approvable:
            results.append(AssertionOutcome(spec.label, False, False, n))
            continue
        approved, examined, _ = sequential_test(
            _Gather(values[k], drawn), seen, n, spec, cfg.epsilon, 1.0 / cfg.alpha, trace
        )
        results.append(AssertionOutcome(spec.label, True, approved, examined))

    return conclude_audit(results, assorters, m)


def _draw_batches_without_replacement(sizes: np.ndarray, rng) -> np.ndarray:
    """Batch indices in draw order, each drawn with probability proportional
    to its size among the batches not yet drawn.

    Batch i gets the key E_i / size_i with E_i ~ Exp(1), an exponential of
    rate size_i; the smallest key left falls to batch i with probability
    size_i over the sizes left, so the order of the keys is successive PPS
    sampling (Efraimidis and Spirakis, "Weighted random sampling with a
    reservoir", IPL 2006).  One draw of B exponentials and one stable sort.
    """
    return np.argsort(rng.standard_exponential(len(sizes)) / sizes, kind="stable")


def batch_audit_loop(
    sizes: np.ndarray,
    specs: Sequence[AssertionSpec],
    batch_values: np.ndarray,
    cfg: AuditConfig,
    trace: TraceHook | None = None,
) -> list[AssertionOutcome]:
    """Shared engine for both batch audits; they differ in values and eta rule.

    Batches are drawn once, with probability proportional to size, and every
    assertion is tested along that one draw order.
    """
    rng = make_rng(cfg.seed)
    order = _draw_batches_without_replacement(sizes, rng)
    seen = np.cumsum(sizes[order])
    n = int(seen[-1])
    results = []
    for k, spec in enumerate(specs):
        approved, examined, batches_at = False, n, len(sizes)
        if spec.approvable:
            approved, batches_at, _ = sequential_test(
                batch_values[k, order], seen, n, spec, cfg.epsilon, 1.0 / cfg.alpha, trace
            )
            if approved:
                examined = int(seen[batches_at - 1])
        results.append(AssertionOutcome(
            spec.label, spec.approvable, approved, examined, batches_examined=batches_at
        ))
    return results


def alpha_batch_audit(
    m: BatchMatrix,
    assorters: Sequence[Assorter],
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
    specs = alpha_init(assorters, m)
    rows = (a.row(m.types) for a in assorters)
    batch_values = np.array(
        [exact_quotients(exact_matmul(m.truth, num), den, m.sizes) for num, den in rows]
    )
    results = batch_audit_loop(m.sizes, specs, batch_values, cfg, trace)
    return conclude_audit(results, assorters, m)


def combined_reported(batches: Sequence[BatchRecord]) -> Tally:
    m = batch_matrix(batches)
    return m.combined(m.reported)
