"""Batch-comparison audit: score reported-vs-true discrepancy, not raw batch means.

For a ballot-level assorter a with reported margin M (reported mean minus
1/2) and w the largest reported per-batch mean, the batch assorter is

    A(B) = 1/2 + (M + a_true(B) - a_rep(B)) / (2 (w - M)).

Accurately counted batches all score the identical value 1/2 + M/(2(w-M))
regardless of their vote distribution, which is the whole point: the test's
guess eta can be set to exactly that constant, the bound U barely above it,
and T then grows at near-maximal rate for as long as no discrepancies show
up.  The size-weighted mean of A over any set of batches equals A of their
union, so the usual sequential machinery applies with batches as draws.

The audit works on the integer count matrices of a
:class:`electaudit.core.BatchMatrix`, into which :func:`load_batches_csv`
reads a batch file, and on the assertions' stacked integer rows
(:func:`electaudit.core.assertion_rows`).  One matrix product per side,
``R @ num.T`` and ``T @ num.T``, holds every batch's reported and true
assorter sums for every assertion, each over its row's denominator; M, w
and every A(B) follow exactly from them, and each float is the correctly
rounded value of the exact rational.  Only the per-assertion constants M,
w, Y, s* and C stay Python ints or ``Fraction``.
:func:`batch_assorter_value_exact` over ``Fraction`` is the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .alpha import (
    DEFAULT_DELTA,
    AssertionSpec,
    AuditConfig,
    AuditOutcome,
    TraceHook,
    batch_audit_loop,
    comparison_spec,
    conclude_audit,
)
from .core import (
    _INT64_LIMIT,
    Assorter,
    AssertionRows,
    BatchMatrix,
    BatchRecord,
    Contest,
    _max_abs,
    assertion_rows,
    assorter_mean,
    batch_matrix,
    check_int64_total,
    exact_matmul,
    exact_quotients,
    read_csv,
)

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class BatchAssorter:
    """A ballot assorter lifted to batches, with its audit constants.

    M and w are exact rationals so that the constancy of A over accurately
    counted batches is an identity, not a rounding accident.  The test
    starts from :func:`electaudit.alpha.comparison_spec` of M, w and delta.
    """

    base: Assorter
    M: Fraction
    w: Fraction
    delta: float

    def __post_init__(self):
        if not self.w > self.M > 0:
            raise ValueError(
                f"batch assorter {self.base.label!r} needs w > M > 0, got w={self.w}, M={self.M}"
            )
        if not 0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite")


def make_batch_assorter(
    base: Assorter, batches: Sequence[BatchRecord], delta: float = DEFAULT_DELTA
) -> BatchAssorter:
    """Constants from the padded batches: M over the union, w over batch means."""
    [A], _ = lift_assertions([base], batch_matrix(batches), delta)
    if A is None:
        raise ValueError(f"batch assorter {base.label!r} needs w > M > 0: its margin M <= 0")
    return A


def batch_assorter_value(A: BatchAssorter, batch: BatchRecord) -> float:
    return float(batch_assorter_value_exact(A, batch))


def batch_assorter_value_exact(A: BatchAssorter, batch: BatchRecord) -> Fraction:
    true_mean = assorter_mean(A.base, batch.truth)
    rep_mean = assorter_mean(A.base, batch.reported)
    return _HALF + (A.M + true_mean - rep_mean) / (2 * (A.w - A.M))


def batchcomp_audit(
    m: BatchMatrix,
    assorters: Sequence[Assorter],
    cfg: AuditConfig,
    delta: float = DEFAULT_DELTA,
    trace: TraceHook | None = None,
) -> AuditOutcome:
    """Run the comparison audit over the batches ``m``.

    Batches are drawn with probability proportional to size, without
    replacement.  Per assertion, T is updated from the batch-assorter value
    with guesses eta = the accurate-batch constant (floored at mu + epsilon)
    and U from delta; mu stays ballot-denominated.  Approval on T > 1/alpha
    or mu < 0.  An assertion whose reported margin is not positive is flagged
    un-approvable, since the reported tallies refute it before any sampling.
    """
    rows = assertion_rows(assorters, m)
    lifted, batch_values = lift_assertions(assorters, m, delta, rows)
    specs = [
        AssertionSpec(a.label, 0.0, 1.0, False) if A is None
        else comparison_spec(a.label, A.M, A.w, A.delta)
        for a, A in zip(assorters, lifted)
    ]
    results = batch_audit_loop(m.sizes, specs, batch_values, cfg, trace)
    return conclude_audit(results, assorters, m, rows)


def lift_assertions(
    assorters: Sequence[Assorter],
    m: BatchMatrix,
    delta: float = DEFAULT_DELTA,
    rows: AssertionRows | None = None,
) -> tuple[list[BatchAssorter | None], np.ndarray]:
    """Each assertion's batch assorter and its A(B) for every batch of ``m``.

    An assertion whose reported margin is not positive gets None and a row
    of zeros: the reported tallies refute it before any sampling.  ``rows``
    is the audit's :func:`electaudit.core.assertion_rows` of ``assorters``,
    built here when not given; one matrix product per side gives every
    assertion's batch sums.

    w is found by an exact argmax: rounding is monotone, so the largest
    exact mean is among the batches whose correctly rounded mean is largest.
    Then, writing w = Y / (den s*) over integers and M = R / (den N) - 1/2,
    with R the reported sum over all N ballots, a batch of size s with
    d = ts - rs scores

        A(B) = (w + d / (den s)) / (2 (w - M)) = N (Y s + s* d) / (s C)

    with C = 2 Y N - 2 R s* + den N s*, so every value is one quotient of
    integers.  The numerators are int64 when their bound stays below 2**63,
    Python ints otherwise.
    """
    rows = assertion_rows(assorters, m) if rows is None else rows
    sizes, N = m.sizes, int(m.sizes.sum())
    rs, ts = (exact_matmul(counts, rows.num.T).T for counts in (m.reported, m.truth))
    # every R is at most N times the largest numerator
    if rs.dtype == object or N * _max_abs(rows.num) >= _INT64_LIMIT:
        R = rs.astype(object).sum(axis=1).tolist()
    else:
        R = rs.sum(axis=1).tolist()
    lifted: list[BatchAssorter | None] = [None] * len(assorters)
    lift = [k for k, den in enumerate(rows.den) if 2 * R[k] > den * N]
    rs, d = rs[lift], ts[lift]
    d -= rs  # ts - rs: sums are non-negative, so d fits rs's dtype
    Y, s_star, C = [], [], []
    for k, rk, means in zip(lift, rs, exact_quotients(rs, 1, sizes)):
        den = rows.den[k]
        top = np.flatnonzero(means == means.max())
        w = max(Fraction(int(rk[b]), den * int(sizes[b])) for b in top)
        lifted[k] = BatchAssorter(assorters[k], Fraction(R[k], den * N) - _HALF, w, delta)
        Y.append(den * w.numerator)
        s_star.append(w.denominator)
        C.append(2 * Y[-1] * N - 2 * R[k] * s_star[-1] + den * N * s_star[-1])
    spread = np.abs(d).max(axis=1, initial=0).tolist()
    bound = N * max((y * int(sizes.max()) + s * x for y, s, x in zip(Y, s_star, spread)), default=0)
    dtype = object if d.dtype == object or bound >= _INT64_LIMIT else np.int64
    numerators = d.astype(dtype, copy=False)  # N (Y s + s* d), built in place
    numerators *= np.array(s_star, dtype=dtype)[:, None]
    numerators += np.array(Y, dtype=dtype)[:, None] * sizes.astype(dtype)
    numerators *= N
    values = np.zeros((len(assorters), len(sizes)))
    values[lift] = exact_quotients(numerators, C, sizes)
    return lifted, values


def load_batches_csv(
    path, contest: Contest, declared_sizes: Mapping[str, int] | None = None
) -> BatchMatrix:
    """Read ``batch_id,party,reported_votes,true_votes`` rows into padded
    count matrices over ``contest``'s name-sorted types, batches in id order.

    A batch's size is its declared size, else the larger of its reported and
    true totals; each side is padded up to it with invalid ballots, so that
    no unexamined batch can hide extra ballots.  A party outside the contest,
    a repeated (batch, party) row, a negative count, a size of 0, a
    declared size below either total (a batch overflow) and a declared size
    for a batch the file lacks are errors.
    """
    types = tuple(sorted(contest.ballot_types, key=lambda bt: bt.name))
    column = {bt.name: k for k, bt in enumerate(types)}
    counts: dict[str, tuple[list[int], list[int]]] = {}
    seen = set()
    columns = ("batch_id", "party", "reported_votes", "true_votes")
    for bid, party, rep, true in read_csv(path, columns, dict.fromkeys(columns[2:], int)):
        if party not in column:
            raise ValueError(f"{path}: batch {bid!r} counts party {party!r}, "
                             "which the contest lacks")
        if (bid, party) in seen:
            raise ValueError(f"{path}: duplicate row for batch {bid!r} party {party!r}")
        seen.add((bid, party))
        sides = counts.setdefault(bid, ([0] * len(types), [0] * len(types)))
        sides[0][column[party]], sides[1][column[party]] = rep, true
    absent = sorted(set(declared_sizes or ()) - set(counts))
    if absent:
        raise ValueError(f"{path}: declared size for batch {', '.join(map(repr, absent))} "
                         "absent from the batch file")
    if not counts:
        raise ValueError(f"{path}: batch list is empty")

    ids, sizes, invalid = sorted(counts), [], column[contest.invalid.name]
    for bid in ids:
        if min(map(min, counts[bid])) < 0:
            raise ValueError(f"{path}: negative count in batch {bid!r}")
        totals = [sum(side) for side in counts[bid]]
        size = (declared_sizes or {}).get(bid, max(totals))
        if size <= 0:
            raise ValueError(f"{path}: batch {bid!r} has non-positive size")
        if size < max(totals):
            raise ValueError(f"batch overflow: batch {bid!r} holds more ballots than declared "
                             f"size {size}")
        for side, total in zip(counts[bid], totals):
            side[invalid] += size - total
        sizes.append(size)
    check_int64_total(sum(sizes))
    reported, truth = (np.array([counts[b][i] for b in ids], dtype=np.int64) for i in (0, 1))
    return BatchMatrix(types, reported, truth, np.array(sizes, dtype=np.int64))
