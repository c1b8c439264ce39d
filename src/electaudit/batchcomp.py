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
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .alpha import (
    AssertionState,
    AuditConfig,
    AuditOutcome,
    TraceHook,
    batch_audit_loop,
    check_batches_padded,
    combined_reported,
    combined_truth,
    conclude_audit,
)
from .core import Assorter, BatchRecord, Contest, assorter_mean

_HALF = Fraction(1, 2)

DEFAULT_DELTA = 1e-10


@dataclass(frozen=True)
class BatchAssorter:
    """A ballot assorter lifted to batches, with its audit constants.

    M and w are exact rationals so that the constancy of A over accurately
    counted batches is an identity, not a rounding accident.  U is the float
    bound actually used by the test: the accurate-batch value plus a sliver
    delta/(2(w-M)).  Small delta makes accurate audits fast; it only costs
    efficiency when reported tallies are wildly (maliciously) wrong.
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
        if self.delta <= 0:
            raise ValueError("delta must be positive")

    @property
    def accurate_value(self) -> Fraction:
        return _HALF + self.M / (2 * (self.w - self.M))

    @property
    def U(self) -> float:
        return float(_HALF + (self.M + Fraction(self.delta)) / (2 * (self.w - self.M)))


def make_batch_assorter(
    base: Assorter, batches: Sequence[BatchRecord], delta: float = DEFAULT_DELTA
) -> BatchAssorter:
    """Constants from the padded batches: M over the union, w over batch means."""
    overall = combined_reported(batches)
    M = assorter_mean(base, overall) - _HALF
    w = max(assorter_mean(base, b.reported) for b in batches)
    return BatchAssorter(base=base, M=M, w=w, delta=delta)


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


def batchcomp_audit(
    batches: Sequence[BatchRecord],
    assorters: Sequence[Assorter],
    cfg: AuditConfig,
    delta: float = DEFAULT_DELTA,
    trace: TraceHook | None = None,
) -> AuditOutcome:
    """Run the comparison audit over padded batches.

    Batches are drawn with probability proportional to size, without
    replacement.  Per assertion, T is updated from the batch-assorter value
    with guesses eta = the accurate-batch constant (floored at mu + epsilon)
    and U from delta; mu stays ballot-denominated.  Approval on T > 1/alpha
    or mu < 0.  An assertion whose reported margin is not positive is flagged
    un-approvable, since the reported tallies refute it before any sampling.
    """
    if not batches:
        raise ValueError("batch list is empty")
    check_batches_padded(batches)
    n = sum(b.size for b in batches)

    overall = combined_reported(batches)
    states: list[AssertionState] = []
    eta_floors: list[float | None] = []
    lifted: list[BatchAssorter | None] = []
    for a in assorters:
        if assorter_mean(a, overall) <= _HALF:
            # non-positive reported margin: the reported tallies already refute it
            st = AssertionState(label=a.label)
            st.approvable = False
            st.active = False
            states.append(st)
            eta_floors.append(None)
            lifted.append(None)
            continue
        A = make_batch_assorter(a, batches, delta)
        target = float(A.accurate_value)
        states.append(AssertionState(label=a.label, eta=target, u=A.U))
        eta_floors.append(target)
        lifted.append(A)

    batch_values = np.zeros((len(assorters), len(batches)))
    for k, A in enumerate(lifted):
        if A is None:
            continue
        batch_values[k] = [batch_assorter_value(A, b) for b in batches]

    results = batch_audit_loop(batches, states, batch_values, n, cfg, eta_floors, trace)
    return conclude_audit(results, assorters, n, lambda: combined_truth(batches))


def load_batches_csv(path, declared_sizes: dict[str, int] | None = None) -> list[BatchRecord]:
    """Read ``batch_id,party,reported_votes,true_votes`` rows into padded batches.

    Sizes are derived by summation; if the reported and true totals of a batch
    disagree, or a declared size exceeds both, the batch is padded with
    invalid ballots up to the larger figure.
    """
    per_batch: dict[str, dict[str, tuple[int, int]]] = {}
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        expected = ["batch_id", "party", "reported_votes", "true_votes"]
        if reader.fieldnames is None or [c.strip() for c in reader.fieldnames[:4]] != expected:
            raise ValueError(f"{path}: expected columns {','.join(expected)}")
        for row in reader:
            bid = row["batch_id"].strip()
            party = row["party"].strip()
            cell = per_batch.setdefault(bid, {})
            if party in cell:
                raise ValueError(f"{path}: duplicate row for batch {bid!r} party {party!r}")
            cell[party] = (int(row["reported_votes"]), int(row["true_votes"]))

    names = sorted({p for rows in per_batch.values() for p in rows})
    contest = Contest.from_party_names(n for n in names if n != "__invalid__")
    batches = []
    for bid in sorted(per_batch):
        rows = per_batch[bid]
        reported = contest.tally({p: rt[0] for p, rt in rows.items()})
        truth = contest.tally({p: rt[1] for p, rt in rows.items()})
        size = max(reported.total, truth.total)
        if declared_sizes is not None:
            declared = declared_sizes.get(bid, size)
            if declared < size:
                raise ValueError(f"batch overflow: {bid!r} declared {declared}, found {size}")
            size = declared
        raw = BatchRecord(id=bid, reported=reported, truth=truth, size=size)
        batches.append(pad_missing_ballots(raw, size))
    return batches
