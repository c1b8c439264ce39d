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

The audit works on the integer count matrices of
:func:`electaudit.core.batch_matrix` and on each ballot assorter's stored
integer row ``(num, den)`` (:meth:`electaudit.core.Assorter.row`).  Per
assertion, ``rs = R @ num`` and ``ts = T @ num`` hold each batch's reported
and true assorter sums over the common denominator ``den``; M, w and every
A(B) follow exactly from them, and each float is the correctly rounded
value of the exact rational.
:func:`batch_assorter_value_exact` over ``Fraction`` is the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .alpha import (
    AssertionSpec,
    AuditConfig,
    AuditOutcome,
    TraceHook,
    batch_audit_loop,
    comparison_spec,
    conclude_audit,
)
from .core import (
    Assorter,
    BatchMatrix,
    BatchRecord,
    Contest,
    assorter_mean,
    batch_matrix,
    exact_matmul,
    exact_quotients,
    read_csv,
)

_HALF = Fraction(1, 2)

DEFAULT_DELTA = 1e-10


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

    @property
    def accurate_value(self) -> Fraction:
        return _HALF + self.M / (2 * (self.w - self.M))


def make_batch_assorter(
    base: Assorter, batches: Sequence[BatchRecord], delta: float = DEFAULT_DELTA
) -> BatchAssorter:
    """Constants from the padded batches: M over the union, w over batch means."""
    m = batch_matrix(batches)
    num, den = base.row(m.types)
    return _lift(base, exact_matmul(m.reported, num), den, m.sizes, delta)


def _lift(
    base: Assorter, rs: np.ndarray, den: int, sizes: np.ndarray, delta: float
) -> BatchAssorter:
    """The batch assorter from the reported sums ``rs[b] = den * sizes[b] * mean_b``.

    w is found by an exact argmax: rounding is monotone, so the largest
    exact mean is among the batches whose correctly rounded mean is largest.
    """
    M = Fraction(sum(rs.tolist()), den * int(sizes.sum())) - _HALF
    means = exact_quotients(rs, 1, sizes)
    top = np.flatnonzero(means == means.max())
    w = max(Fraction(int(rs[b]), den * int(sizes[b])) for b in top)
    return BatchAssorter(base=base, M=M, w=w, delta=delta)


def _batch_values(
    A: BatchAssorter, rs: np.ndarray, ts: np.ndarray, den: int, sizes: np.ndarray
) -> np.ndarray:
    """A(B) of every batch, each the float of its exact value.

    Write w = Y / (den s*) over integers and M = R / (den N) - 1/2, with R
    the reported sum over all N ballots.  For a batch of size s with
    d = ts - rs,

        A(B) = (w + d / (den s)) / (2 (w - M)) = N (Y s + s* d) / (s C)

    with C = 2 Y N - 2 R s* + den N s*, so every value is one quotient of
    integers.  The numerators are int64 when their bound stays below 2**63,
    Python ints otherwise.
    """
    N, R = int(sizes.sum()), sum(rs.tolist())
    Y, s_star = den * A.w.numerator, A.w.denominator
    C = 2 * Y * N - 2 * R * s_star + den * N * s_star
    d = ts - rs  # sums are non-negative: d fits rs's dtype
    if d.dtype == object or N * (Y * int(sizes.max()) + s_star * int(np.abs(d).max())) >= 2**63:
        sizes, d = sizes.astype(object), d.astype(object)
    return exact_quotients(N * (Y * sizes + s_star * d), C, sizes)


def pad_missing_ballots(batch: BatchRecord, declared_size: int) -> BatchRecord:
    """Grow both tallies to the declared size with imaginary invalid ballots.

    A batch that turns out short of its declared ballot count is treated as
    if the missing ballots are invalid, on both the reported and true side,
    so that no unexamined batch can hide extra ballots.
    """
    if declared_size < batch.reported.total or declared_size < batch.truth.total:
        raise ValueError(
            f"batch overflow: batch {batch.id!r} holds more ballots than declared size "
            f"{declared_size}"
        )
    invalid = _invalid_type(batch)
    reported = batch.reported.with_added(invalid, declared_size - batch.reported.total)
    truth = batch.truth.with_added(invalid, declared_size - batch.truth.total)
    return BatchRecord(id=batch.id, reported=reported, truth=truth, size=declared_size)


def _invalid_type(batch: BatchRecord):
    for bt in list(batch.reported.counts) + list(batch.truth.counts):
        if bt.is_invalid:
            return bt
    raise ValueError(f"batch {batch.id!r} has no invalid ballot type to pad with")


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
    lifted, batch_values = lift_assertions(assorters, m, delta)
    specs = [
        AssertionSpec(a.label, 0.0, 1.0, False) if A is None
        else comparison_spec(a.label, A.M, A.w, A.delta)
        for a, A in zip(assorters, lifted)
    ]
    results = batch_audit_loop(m.sizes, specs, batch_values, cfg, trace)
    return conclude_audit(results, assorters, m)


def lift_assertions(
    assorters: Sequence[Assorter], m: BatchMatrix, delta: float = DEFAULT_DELTA
) -> tuple[list[BatchAssorter | None], np.ndarray]:
    """Each assertion's batch assorter and its A(B) for every batch of ``m``.

    An assertion whose reported margin is not positive gets None and a row
    of zeros: the reported tallies refute it before any sampling.
    """
    n = int(m.sizes.sum())
    lifted: list[BatchAssorter | None] = []
    values = np.zeros((len(assorters), len(m.sizes)))
    for k, a in enumerate(assorters):
        num, den = a.row(m.types)
        rs = exact_matmul(m.reported, num)
        if 2 * sum(rs.tolist()) <= den * n:
            lifted.append(None)
            continue
        A = _lift(a, rs, den, m.sizes, delta)
        lifted.append(A)
        values[k] = _batch_values(A, rs, exact_matmul(m.truth, num), den, m.sizes)
    return lifted, values


def load_batches_csv(path, declared_sizes: dict[str, int] | None = None) -> list[BatchRecord]:
    """Read ``batch_id,party,reported_votes,true_votes`` rows into padded batches.

    Sizes are derived by summation; if the reported and true totals of a batch
    disagree, or a declared size exceeds both, the batch is padded with
    invalid ballots up to the larger figure.  A declared size below either
    total is a batch overflow (:func:`pad_missing_ballots`).
    """
    per_batch: dict[str, dict[str, tuple[int, int]]] = {}
    columns = ("batch_id", "party", "reported_votes", "true_votes")
    for bid, party, rep, true in read_csv(path, columns):
        cell = per_batch.setdefault(bid, {})
        if party in cell:
            raise ValueError(f"{path}: duplicate row for batch {bid!r} party {party!r}")
        cell[party] = (int(rep), int(true))

    names = sorted({p for rows in per_batch.values() for p in rows})
    contest = Contest.from_party_names(n for n in names if n != "__invalid__")
    batches = []
    for bid in sorted(per_batch):
        rows = per_batch[bid]
        reported = contest.tally({p: rt[0] for p, rt in rows.items()})
        truth = contest.tally({p: rt[1] for p, rt in rows.items()})
        size = (declared_sizes or {}).get(bid, max(reported.total, truth.total))
        raw = BatchRecord(id=bid, reported=reported, truth=truth, size=size)
        batches.append(pad_missing_ballots(raw, size))
    return batches
