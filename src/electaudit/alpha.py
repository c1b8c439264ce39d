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
package: it takes a group of assertion rows that share one draw order and
one eta rule, one start (an :class:`AssertionSpec`) per row, and computes
each row's T as a running product of the factors above, with mu, eta and u
from running sums.
The ballot-level audit, both batch audits and the census audit call it, the
two comparison audits with the start of :func:`comparison_spec`.  The
step-by-step reference it is tested against lives in ``tests/helpers.py``;
it writes the same factor in the equivalent form
``(a / mu) * (eta - mu) / (u - mu) + (u - eta) / (u - mu)``.

The kernel evaluates the draws block by block, ``_BLOCK`` draws at a time,
and drops a row after the first block that holds its stop, so an assertion
that approves early costs one block, not the whole sequence.  Between blocks
it carries, per row, the running weighted sum S, the (mu, eta, u) the next
draw is tested with, T and the max of T.  Each carry enters where a single
pass would have used it: S heads the next block's weighted values in its
``cumsum``, T multiplies its first factor before its ``cumprod``, and the
carried u heads the block's running max of u.  Where no row's u grows after
a block's entry 1 (almost every block in the shipped workloads) each row's u
is one float: the factors use it and 1/u once, with no u array and no
running max, and entry 0's factor is computed again with the carried u if u
stepped after it.  Where some row's u grows, the block takes the running
max for every row.  Running sums, products and maxima go left to right along
each row, and a row's float u equals each entry of the array it replaces, so
every element goes through the same float operations in the same order as
in one pass of its row alone: the result is identical bit for bit, whatever
the block length and whichever rows share the call.  A trace hook gets the
T/mu/eta/u rows of each examined draw, all of one row before the next.

Who stacks rows is a measured choice.  The batch audits test all their
approvable assertions in one call: in the shipped Knesset workload that is
56 rows of about 305 batches, some 17k values, which fit in one block, and
one call replaces 56 calls whose fixed cost dominated (140 to 260 ns per
draw against about 23 ns on long sequences).  The ballot-level audit keeps
one row per call: its rows are 120k ballots long, each stops at its own
draw, and stacking its 56 rows made its trial 18 to 60% slower.  The census
audit keeps one row per call too: its pairs hold 2k to 4.5k draws each, and
a 20-pair stack, about 500 KB per array, no longer fits in cache and was
neutral to 5% slower.  A one-row call keeps every per-row value a scalar,
since a (1, 1) column slows each ufunc of the block.

The batch variant draws whole batches with probability proportional to size,
all at once by sorting exponential keys, and feeds each batch's true
assorter mean through the same test, with the running sums weighted by batch
size.  It uses only the overall reported tally, never per-batch reported
tallies; the comparison audit that does use them lives in
:mod:`electaudit.batchcomp`.

Both audits here, like the batch-comparison audit, take only the trial's
one batch store, a :class:`electaudit.core.BatchMatrix`: the reported tally
is the column sum of its reported counts.  Each audit stacks its assorters'
integer rows once into one (assertions x types) matrix,
:func:`electaudit.core.assertion_rows`, and reads every per-assertion
integer quantity from it.  The ballot-level audit expands the true counts
into one type index per ballot, shuffles it once, and hands the kernel each
block's values as a gather from that order, so no full-length value row is
built; the batch variant gets every true batch mean of every assertion from
one integer matrix product of the counts and the matrix.  The reported mean
eta and the full count's verdict are one integer product of the matrix with
the column sums.  Each value is the float of its exact ``Fraction``, which
stays the reference.  Each test starts from an immutable
:class:`AssertionSpec`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import Assorter, AssertionRows, BatchMatrix, BatchRecord, Tally, assertion_rows
from .core import batch_matrix, exact_matmul, exact_quotients
from .randomness import Seed, make_rng

_HALF = Fraction(1, 2)
EPSILON = 1e-9  # keeps mu < eta < u strict in every audit's test
DEFAULT_DELTA = 1e-10  # the comparison audits' sliver of u above eta (comparison_spec)

TraceHook = Callable[[int, str, float, float, float, float], None]


@dataclass
class AuditConfig:
    """Risk limit and shuffle seed."""

    alpha: float
    seed: Seed = 0

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise ValueError("risk limit alpha must be in (0, 1]")


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


def alpha_init(
    assorters: Sequence[Assorter], m: BatchMatrix, rows: AssertionRows | None = None
) -> list[AssertionSpec]:
    """Each assertion's start: eta the mean over the reported counts of ``m``,
    u the assorter bound.  ``rows`` is the audit's :func:`assertion_rows`
    of ``assorters``, built here when not given.

    An assertion whose reported mean is at most 1/2 is flagged un-approvable:
    the reported results themselves refute it, so the audit can only end in a
    full recount.  A reported mean at or above the upper bound leaves no room
    for mu < eta < u and is rejected outright.
    """
    n = int(m.sizes.sum())
    rows = assertion_rows(assorters, m) if rows is None else rows
    specs = []
    for a, (S, den) in zip(assorters, _exact_sums(rows, m.reported)):
        eta = S / (den * n)  # int / int is correctly rounded: the float of the exact mean
        u = float(a.upper)
        if eta > 0.5 and eta >= u:
            raise ValueError(
                f"degenerate assorter {a.label!r}: reported mean {eta} reaches its upper bound {u}"
            )
        specs.append(AssertionSpec(a.label, eta, u, eta > 0.5))
    return specs


def _exact_sums(rows: AssertionRows, counts: np.ndarray) -> list[tuple[int, int]]:
    """``(S, den)`` per row, ``S / den`` its exact sum over every ballot of
    the batch-by-type ``counts``, S a Python int."""
    S = exact_matmul(counts.sum(axis=0)[None], rows.num.T)[0]
    return list(zip(S.tolist(), rows.den))


# Draws evaluated per block.  A block's arrays stay in L2 cache, and a test
# that stops early wastes at most one block of work.
_BLOCK = 8192


class _Gather:
    """``values[index]`` one slice at a time, so no full value row is built."""

    def __init__(self, values: np.ndarray, index: np.ndarray):
        self.values, self.index = values, index

    def __getitem__(self, s: slice) -> np.ndarray:
        return np.take(self.values, self.index[s])


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
    specs: Sequence[AssertionSpec] | AssertionSpec,
    threshold: float,
    trace: TraceHook | None = None,
):
    """The sequential test of assertion rows along one draw order: one
    (approved, examined, T_max) per row.

    ``x[r, j]`` is row r's value of draw j+1 and ``seen[j]`` the ballots
    examined after it (strictly increasing, at most ``n``), so a draw weighs
    ``seen[j] - seen[j-1]`` ballots.  ``x`` is a rows x draws array.  Row r
    starts from ``specs[r]``: its ``eta`` and ``u``; ``eta_floor`` of None
    selects the remaining-reported-mean guess with ``eta`` as the reported
    mean, and a float selects the fixed target of the comparison audits.
    Every row of one call takes the same rule; a mix is a ValueError.  A
    row approves on the first draw after which T exceeds ``threshold``, or
    after which mu falls below 0 while ballots remain.  ``EPSILON`` keeps
    mu < eta < u strict.

    One spec in place of the sequence is the one-row call: ``x`` is that
    row, an array or anything whose slice ``x[i:j]`` is the array of draws
    i+1..j, and the result is its one triple.

    Each quantity is the one the step-by-step reference in the tests
    (``tests/helpers.py``, ``advance``) computes: mu and eta depend on past
    draws only through their running weighted sum, u is a running max, and
    T a running product of the factors
    ``(1/u) (x eta/mu + (u - x)(u - eta)/(u - mu))``.

    The draws are evaluated in blocks of ``_BLOCK``, and no block after the
    one holding a row's stop is evaluated for that row.  Each row's u is one
    float in a block where no row's u grows after entry 1, and entry 0's
    factor is computed again with the carried u if u stepped after it;
    otherwise the block takes the running max of u for every row.  A
    ``trace`` hook gets one call per examined draw, row after row:
    ``trace(j, spec.label, T, mu, eta, u)`` with the draw's number, T after
    it and the state it was tested with.
    """
    one = isinstance(specs, AssertionSpec)
    # A value per row is a scalar in the one-row call, where a (1, 1) column
    # would slow every ufunc of the block: ``col`` makes it broadcast along
    # the draws, ``at(a, t)`` takes column t of a block array as a copy (a
    # view would keep the block's arrays alive, and the next block's would
    # not reuse their cached memory), and ``every`` and ``some`` reduce a
    # per-row test.
    if one:
        specs, col, at, every, some = [specs], (lambda v: v), operator.getitem, bool, bool
    else:
        col, at = (lambda v: v[:, None]), (lambda a, t: a[:, t].copy())
        every, some = np.all, np.any
    m = len(seen)
    unit = m > 0 and seen[-1] == m  # one ballot per draw
    results: list = [None] * len(specs)
    steps = [[] for _ in specs] if trace is not None else None  # each row's trace calls
    live = list(range(len(specs)))  # the rows still testing
    rows = slice(None)  # ``live`` as an index into x: a view while every row is live
    fixed = any(s.eta_floor is not None for s in specs)  # else the remaining-reported-mean eta
    if any((s.eta_floor is None) == fixed for s in specs):
        raise ValueError("the rows of one call must share one eta rule")
    # per row: eta and u before draw 1, and the fixed eta or the reported mean
    start = [(s.eta, s.u, s.eta_floor if fixed else s.eta) for s in specs]
    eta_carry, u_carry, target = start[0] if one else np.array(start).reshape(-1, 3).T.copy()
    # with eta_carry and u_carry, the (mu, eta, u) the next draw is tested with
    mu_carry = 0.5 if one else np.full(len(specs), 0.5)
    S_carry = T_carry = None
    peak = [-math.inf] * len(specs)  # max of T so far, NaN propagating as in one T.max()
    # one errstate for the whole loop: entering it per block costs more than a short block
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(0, m, _BLOCK):
            if not live:
                break
            j = min(i + _BLOCK, m)
            b = j - i
            shape = (b + 1,) if one else (len(live), b + 1)
            xb = x[i:j] if one else x[rows, i:j]
            w = xb if unit else xb * np.diff(seen[i:j], prepend=seen[i - 1] if i else 0)
            if i:  # the carried sum heads the running sum, so draw i+1 adds to it as in one pass
                S = np.empty(shape)
                S[..., 0], S[..., 1:] = S_carry, w
                S = np.cumsum(S, axis=-1, out=S)[..., 1:]
            else:
                S = np.cumsum(w, axis=-1)
            # Entry t of mu/eta/u is the state after i+t draws, which draw i+t+1
            # is tested with; entry 0 is carried over.  No state follows a draw
            # that exhausts the ballots.  The arrays are filled in place to keep
            # temporaries few.
            k = b if seen[j - 1] < n else b - 1
            mu, eta, scratch = np.empty(shape), np.empty(shape), np.empty(shape)
            mu[..., 0], eta[..., 0] = mu_carry, eta_carry
            mu_next, eta_next = mu[..., 1 : k + 1], eta[..., 1 : k + 1]
            remaining = np.subtract(n, seen[i : i + k], out=(scratch if one else scratch[0])[:k])
            np.subtract(0.5 * n, S[..., :k], out=mu_next)
            mu_next /= remaining
            if fixed:
                eta_next[...] = col(target)
            else:
                np.subtract(n * col(target), S[..., :k], out=eta_next)
                eta_next /= remaining
            np.maximum(np.add(mu_next, EPSILON, out=scratch[..., :k]), eta_next, out=eta_next)
            # u, the running max of eta + EPSILON after the carried u, stays each
            # row's u1 unless some row's max(eta) + EPSILON passes it (rounding is
            # monotone; False for NaN)
            u1 = np.maximum(u_carry, at(eta_next, 0) + EPSILON) if k else u_carry
            grows = k and not every(eta_next.max(axis=-1) + EPSILON <= u1)
            if grows:
                scratch[..., 0] = u_carry
                np.add(eta_next, EPSILON, out=scratch[..., 1 : k + 1])
                np.maximum.accumulate(scratch[..., : k + 1], axis=-1, out=scratch[..., : k + 1])
                u, u1 = scratch[..., :b], at(scratch, k)
            scan = not mu[..., : k + 1].min() > 0  # for mu exactly 0 and the mu < 0 stop
            # mu[..., b] is unset only when draw j exhausts the ballots, and no block follows
            S_carry, mu_carry, eta_carry = at(S, -1), at(mu, b), at(eta, b)

            mu, eta = mu[..., :b], eta[..., :b]
            T = _factors(xb, mu, eta, u if grows else col(u1), scan)
            if not grows and some(u_carry != u1):  # draw i+1 is tested with the carried u
                T[..., :1] = _factors(xb[..., :1], mu[..., :1], eta[..., :1], col(u_carry), scan)
            if i:  # the carried T times the first factor, as in one pass
                T[..., 0] *= T_carry
            np.cumprod(T, axis=-1, out=T)

            T_carry, u_carry, u_tested = at(T, -1), u1, u_carry
            # per row from here: a one-row block as a 1 x b array
            T = T.reshape(-1, b)
            top = T.max(axis=1)
            e = [b] * len(live)  # draws of this block examined, per row
            stops = []  # the rows that stop in this block
            if scan or not (top <= threshold).all():  # no T passes it (False for NaN)
                hit = T > threshold
                if scan:
                    hit[:, :k] |= mu_next < 0
                if one:
                    stops = [0] if hit.any() else []
                else:
                    stops = np.flatnonzero(hit.any(axis=1)).tolist()
                for p in stops:
                    e[p] = int(hit[p].argmax()) + 1
                    top[p] = T[p, : e[p]].max()
            peak = np.maximum(peak, top) if i else top
            if steps is not None:
                us = u.reshape(-1, b) if grows else np.reshape(u1, (-1, 1)).repeat(b, axis=1)
                if not grows:
                    us[:, 0] = u_tested
                state = (T, mu.reshape(-1, b), eta.reshape(-1, b), us)
                for p, row in enumerate(live):
                    block = zip(*(a[p, : e[p]].tolist() for a in state))
                    steps[row] += [(t, specs[row].label, *v) for t, v in enumerate(block, i + 1)]
            for p in stops:
                results[live[p]] = (True, i + e[p], max(1.0, float(peak[p])))
            if len(stops) == len(live):
                live = []
            elif stops:  # only rows of a many-row call remain
                go = np.ones(len(live), dtype=bool)
                go[stops] = False
                live = rows = [row for row, keep in zip(live, go) if keep]
                peak, target = peak[go], target[go]
                S_carry, mu_carry, eta_carry = S_carry[go], mu_carry[go], eta_carry[go]
                T_carry, u_carry = T_carry[go], u_carry[go]
    for p, row in enumerate(live):
        results[row] = (False, m, max(1.0, float(peak[p])))
    for row_steps in steps or ():
        for step in row_steps:
            trace(*step)
    return results[0] if one else results


def _factors(x, mu, eta, u, scan: bool) -> np.ndarray:
    """The factors ``(x eta/mu + (u - x)(u - eta)/(u - mu)) * (1/u)``; u an
    array, a column of one float per row, or one float."""
    f = x * eta
    f /= mu
    g = u - x  # (u - x)(u - eta)/(u - mu), in place to keep temporaries few
    g *= u - eta
    g /= u - mu
    f += g
    f *= np.divide(1.0, u)
    if scan:  # mu exactly 0: a positive draw is infinite evidence, a zero one is not
        f[mu == 0.0] = np.where(x > 0, np.inf, (u - eta) / (u - mu))[mu == 0.0]
    return f


def conclude_audit(
    results: list[AssertionOutcome],
    assorters: Sequence[Assorter],
    m: BatchMatrix,
    rows: AssertionRows | None = None,
) -> AuditOutcome:
    """The audit's outcome; unless every assertion was approved it ends in a
    full count, which reveals whether each assertion truly holds.

    The full count is the column sum of ``m.truth``, and an assertion holds
    when its exact sum over it exceeds half the ballots.  ``rows`` is as in
    :func:`alpha_init`.
    """
    n = int(m.sizes.sum())
    approved = all(r.approved for r in results)
    if approved:
        examined = max((r.examined for r in results), default=0)
    else:
        examined = n
        sums = _exact_sums(assertion_rows(assorters, m) if rows is None else rows, m.truth)
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
    rows = assertion_rows(assorters, m)
    specs = alpha_init(assorters, m, rows)
    rng = make_rng(cfg.seed)

    values = exact_quotients(rows.num, rows.den, np.ones(len(m.types), dtype=np.int64))
    drawn = np.repeat(np.tile(np.arange(len(m.types), dtype=np.int64), len(m)), m.truth.ravel())
    rng.shuffle(drawn)  # the order a gather by rng.permutation(n) gives, in place
    seen = np.arange(1, n + 1)

    results: list[AssertionOutcome] = []
    for k, spec in enumerate(specs):
        if not spec.approvable:
            results.append(AssertionOutcome(spec.label, False, False, n))
            continue
        approved, examined, _ = sequential_test(
            _Gather(values[k], drawn), seen, n, spec, 1.0 / cfg.alpha, trace
        )
        results.append(AssertionOutcome(spec.label, True, approved, examined))

    return conclude_audit(results, assorters, m, rows)


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
    approvable assertion is tested along that one draw order, all of them
    in one kernel call.
    """
    rng = make_rng(cfg.seed)
    order = _draw_batches_without_replacement(sizes, rng)
    seen = np.cumsum(sizes[order])
    n = int(seen[-1])
    tested = [k for k, spec in enumerate(specs) if spec.approvable]
    x = np.take(batch_values[tested], order, axis=1)
    outcomes = dict(zip(tested, sequential_test(
        x, seen, n, [specs[k] for k in tested], 1.0 / cfg.alpha, trace
    )))
    results = []
    for k, spec in enumerate(specs):
        approved, batches_at, _ = outcomes.get(k, (False, len(sizes), None))
        examined = int(seen[batches_at - 1]) if approved else n
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
    rows = assertion_rows(assorters, m)
    specs = alpha_init(assorters, m, rows)
    batch_values = exact_quotients(exact_matmul(m.truth, rows.num.T).T, rows.den, m.sizes)
    results = batch_audit_loop(m.sizes, specs, batch_values, cfg, trace)
    return conclude_audit(results, assorters, m, rows)


def combined_reported(batches: Sequence[BatchRecord]) -> Tally:
    m = batch_matrix(batches)
    return m.combined(m.reported)
