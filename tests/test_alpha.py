import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from electaudit import alpha as alpha_mod
from electaudit.alpha import (
    EPSILON,
    AssertionSpec,
    AuditConfig,
    alpha_audit,
    alpha_batch_audit,
    alpha_init,
    sequential_test,
)
from electaudit.batchcomp import batchcomp_audit
from electaudit.core import BatchRecord, Contest, batch_matrix, plurality_assorter
from electaudit.randomness import make_rng

from .helpers import (
    AssertionState,
    KernelPath,
    advance,
    alpha_step,
    ballot_batch,
    chi_square,
    draw_order_reference,
    run_path_reference,
    start_state,
    traced_path,
)


@pytest.fixture
def two_party():
    c = Contest.from_party_names(["Alice", "Bob"])
    a = plurality_assorter(c.by_name("Alice"), c.by_name("Bob"), c)
    return c, a


def _spec(eta0, u0, floor=None):
    """A kernel start: eta0 and u0, and the fixed-eta rule when ``floor`` is a float."""
    return AssertionSpec("kernel", eta0, u0, True, floor)


def test_init_sets_reported_mean(two_party):
    c, a = two_party
    rep = c.tally({"Alice": 60, "Bob": 40})
    st = start_state(alpha_init([a], ballot_batch(rep))[0], 100)
    assert (st.eta, st.u, st.mu, st.T) == (0.6, 1.0, 0.5, 1.0)
    assert st.approvable and st.active


def test_init_flags_reported_tie_unapprovable(two_party):
    c, a = two_party
    rep = c.tally({"Alice": 50, "Bob": 50})
    st = start_state(alpha_init([a], ballot_batch(rep))[0], 100)
    assert not st.approvable and not st.active


def test_init_two_assorters_independent(two_party):
    c, a = two_party
    b = plurality_assorter(c.by_name("Bob"), c.by_name("Alice"), c)
    rep = c.tally({"Alice": 60, "Bob": 40})
    states = alpha_init([a, b], ballot_batch(rep))
    assert states[0].approvable and not states[1].approvable
    assert (states[0].eta, states[1].eta) == (0.6, 0.4)


def test_init_degenerate_when_mean_hits_bound(two_party):
    c, a = two_party
    rep = c.tally({"Alice": 100})
    with pytest.raises(ValueError, match="degenerate assorter"):
        alpha_init([a], ballot_batch(rep))


def test_step_at_mu_keeps_T(two_party):
    c, a = two_party
    rep = c.tally({"Alice": 60, "Bob": 40})
    cfg = AuditConfig(alpha=0.05)
    st = start_state(alpha_init([a], ballot_batch(rep))[0], 100)
    alpha_step(st, 0.5, cfg, 100, 0.6)
    assert st.T == pytest.approx(1.0, abs=0)


def test_step_known_value(two_party):
    c, a = two_party
    rep = c.tally({"Alice": 60, "Bob": 40})
    cfg = AuditConfig(alpha=0.05)
    st = start_state(alpha_init([a], ballot_batch(rep))[0], 100)
    alpha_step(st, 1.0, cfg, 100, 0.6)
    # (1/.5) * (.1/.5) + (.4/.5)
    assert st.T == pytest.approx(1.2, rel=1e-12)
    assert st.seen == 1 and st.cum_sum == 1.0


def test_step_certain_approval_when_mu_negative(two_party):
    c, a = two_party
    rep = c.tally({"Alice": 3, "Bob": 1})
    cfg = AuditConfig(alpha=1e-9)  # threshold unreachably high: only mu can approve
    st = start_state(alpha_init([a], ballot_batch(rep))[0], 4)
    alpha_step(st, 1.0, cfg, 4, 0.75)
    alpha_step(st, 1.0, cfg, 4, 0.75)
    alpha_step(st, 1.0, cfg, 4, 0.75)
    # 3 of 4 ballots scored 1: mean over all 4 exceeds 1/2 whatever remains
    assert st.approved and not st.active


def test_step_exhausted_raises(two_party):
    c, a = two_party
    rep = c.tally({"Alice": 2, "Bob": 1})
    cfg = AuditConfig(alpha=0.05)
    st = start_state(alpha_init([a], ballot_batch(rep))[0], 3)
    for _ in range(3):
        alpha_step(st, 0.5, cfg, 3, 2 / 3)
    with pytest.raises(ValueError, match="stop sampling"):
        alpha_step(st, 0.5, cfg, 3, 2 / 3)


def test_state_ordering_invariant_along_run(two_party):
    """mu < eta < u after every update while the assertion stays active."""
    c, a = two_party
    rep = c.tally({"Alice": 55, "Bob": 45})
    cfg = AuditConfig(alpha=0.05, seed=11)
    st = start_state(alpha_init([a], ballot_batch(rep))[0], 100)
    rng = make_rng(11)
    values = rng.choice([0.0, 0.5, 1.0], size=100, p=[0.45, 0.0, 0.55])
    t_max_seen = st.T_max
    for v in values:
        if not st.active:
            break
        alpha_step(st, float(v), cfg, 100, 0.55)
        assert st.T >= 0
        assert st.T_max >= t_max_seen
        t_max_seen = st.T_max
        if st.active and st.seen < 100:
            assert st.mu < st.eta < st.u


def test_vectorised_trajectory_matches_stepwise(two_party):
    c, a = two_party
    cfg = AuditConfig(alpha=0.05)
    n = 300
    rng = make_rng(3)
    x = rng.choice([0.0, 0.5, 1.0], size=n, p=[0.35, 0.1, 0.55]).astype(float)
    rep_mean = 0.57
    rep = c.tally({"Alice": 171, "Bob": 129})
    st = start_state(alpha_init([a], ballot_batch(rep))[0], n)
    seen = np.arange(1, n + 1)
    path = traced_path(x, seen, n, _spec(rep_mean, st.u), EPSILON, 1 / cfg.alpha)
    T, mu, eta, u = path.T, path.mu, path.eta, path.u
    for j in range(n):
        if not st.active:
            break
        alpha_step(st, float(x[j]), cfg, n, rep_mean)
        assert st.T == pytest.approx(T[j], rel=1e-11)
        if st.active and st.seen < n:
            assert st.mu == pytest.approx(mu[j + 1], rel=1e-11)
            assert st.eta == pytest.approx(eta[j + 1], rel=1e-11)
            assert st.u == pytest.approx(u[j + 1], rel=1e-11)
    assert (path.approved, path.examined) == (st.approved, st.seen)


def test_update_form_matches_census_form():
    """The ratio form and the product form of the T update are identical."""
    rng = make_rng(17)
    for _ in range(20000):
        mu = rng.uniform(0.01, 0.99)
        eta = mu + rng.uniform(1e-6, 1.0)
        u = eta + rng.uniform(1e-6, 1.0)
        a = rng.uniform(0.0, u)
        lhs = (a / mu) * (eta - mu) / (u - mu) + (u - eta) / (u - mu)
        rhs = (1.0 / u) * (a * eta / mu + (u - a) * (u - eta) / (u - mu))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_supermartingale_mean_stays_at_one(two_party):
    """Under a true null (assorter mean exactly 1/2), E[T_j] stays near 1.

    10^4 seeded shuffles of a 12-12 tally; the stopped process (frozen once
    mu < 0 forces certainty) must have per-step empirical mean within 3
    standard errors of 1.
    """
    c, a = two_party
    n = 24
    ballots = np.array([1.0] * 12 + [0.0] * 12)
    runs = 10_000
    rng = make_rng(99)
    eps = 1e-9
    rep_mean = 0.54
    seen = np.arange(1, n + 1)
    paths = np.empty((runs, n))
    for r in range(runs):
        x = rng.permutation(ballots)
        # no risk limit: the path runs on until mu < 0 stops it
        path = traced_path(x, seen, n, _spec(rep_mean, 1.0), eps, math.inf)
        paths[r, : path.examined] = path.T
        paths[r, path.examined :] = path.T[-1]
    means = paths.mean(axis=0)
    se = paths.std(axis=0, ddof=1) / math.sqrt(runs)
    assert np.all(means <= 1.0 + 3 * se)


def test_audit_wide_margin_finishes_early(two_party):
    c, a = two_party
    rep = c.tally({"Alice": 6000, "Bob": 4000})
    batches = ballot_batch(rep)
    early = 0
    for seed in range(100):
        out = alpha_audit(batches, [a], AuditConfig(alpha=0.05, seed=seed))
        assert out.approved
        early += out.ballots_examined < 10000
    assert early >= 99


def test_audit_single_ballot_terminates(two_party):
    c, a = two_party
    rep = c.tally({"__invalid__": 1})
    out = alpha_audit(ballot_batch(rep), [a], AuditConfig(alpha=0.05, seed=0))
    assert out.full_count and out.ballots_examined == 1
    assert out.assertions[0].truly_satisfied is False


def test_audit_wrong_winner_rarely_approves(two_party):
    """Smaller-scale risk check; the acceptance suite runs the full one."""
    c, a = two_party
    rep = c.tally({"Alice": 210, "Bob": 190})
    batches = ballot_batch(c.tally({"Alice": 190, "Bob": 210}), rep)
    wrong = sum(
        alpha_audit(batches, [a], AuditConfig(alpha=0.05, seed=s)).approved
        for s in range(400)
    )
    assert wrong / 400 <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / 400)


def test_first_crossing_prefers_earliest_rule():
    # 4 ballots, bound 3: mu goes negative after draw 2, before T reaches 1/alpha
    x = np.array([1.5, 1.5, 3.0, 3.0])
    cfg = AuditConfig(alpha=0.1)
    path = traced_path(x, np.arange(1, 5), 4, _spec(1.0, 3.0), EPSILON, 1 / cfg.alpha)
    assert path.approved and path.examined == 2
    assert path.T_max == path.T[1] < 1 / cfg.alpha
    ref = AssertionState("ref", eta=1.0, u=3.0)
    for value in x[:2]:
        alpha_step(ref, float(value), cfg, 4, 1.0)
    assert ref.approved and ref.mu < 0 and ref.T < 1 / cfg.alpha
    assert path.T_max == pytest.approx(ref.T_max, rel=1e-12)
    # with a threshold T passes at draw 1, the T rule comes first
    early = sequential_test(x, np.arange(1, 5), 4, _spec(1.0, 3.0), EPSILON, path.T[0] / 2)
    assert early[:2] == (True, 1)


def test_golden_values_pin_generator():
    """The documented PCG64 contract, not a platform default, drives sampling.

    These draws are frozen; a generator or seeding change must fail here.
    """
    assert make_rng(0).permutation(8).tolist() == [2, 4, 3, 6, 5, 0, 1, 7]
    assert make_rng(2024).permutation(10).tolist() == [3, 5, 2, 9, 0, 7, 4, 1, 6, 8]
    assert make_rng((5, 1)).integers(0, 1000, size=4).tolist() == [132, 774, 778, 470]


# 99.9% quantile of chi-square with 11 degrees of freedom, fixed before any run
CHI2_999_DF11 = 31.26


@pytest.mark.parametrize("draw", ["exponential_keys", "rng_choice_reference"])
def test_draw_order_first_two_draws_follow_successive_pps(draw):
    """The first two batches of a 4-batch order fall with the successive-PPS
    probabilities w_i / W * w_j / (W - w_i), for the exponential-key order
    and for the one-``rng.choice``-per-draw reference alike."""
    sizes = [1, 2, 3, 4]
    W = sum(sizes)
    probs = {
        (i, j): sizes[i] / W * sizes[j] / (W - sizes[i])
        for i in range(4) for j in range(4) if i != j
    }
    rng, draws, counts = make_rng(8), 20_000, {}
    for _ in range(draws):
        if draw == "exponential_keys":
            order = alpha_mod._draw_batches_without_replacement(np.array(sizes), rng).tolist()
        else:
            order = draw_order_reference(sizes, rng)
        assert sorted(order) == [0, 1, 2, 3]
        counts[tuple(order[:2])] = counts.get(tuple(order[:2]), 0) + 1
    assert chi_square(counts, probs, draws) < CHI2_999_DF11


def test_alpha_batch_single_batch_full_count(two_party):
    c, a = two_party
    t = c.tally({"Alice": 120, "Bob": 80})
    out = alpha_batch_audit(
        batch_matrix([BatchRecord("only", t, t, 200)]), [a], AuditConfig(alpha=0.05, seed=0)
    )
    assert out.assertions[0].batches_examined == 1
    assert out.full_count and out.assertions[0].truly_satisfied


def test_alpha_batch_empty_list(two_party):
    _, a = two_party
    with pytest.raises(ValueError):
        alpha_batch_audit(batch_matrix([]), [a], AuditConfig(alpha=0.05, seed=0))


def test_alpha_batch_wrong_winner_rarely_approves(two_party):
    c, a = two_party
    rep_batches = []
    for i in range(8):
        rep = c.tally({"Alice": 26, "Bob": 24})
        true = c.tally({"Alice": 24, "Bob": 26})
        rep_batches.append(BatchRecord(f"b{i}", rep, true, 50))
    wrong = 0
    trials = 400
    for s in range(trials):
        out = alpha_batch_audit(
            batch_matrix(rep_batches), [a], AuditConfig(alpha=0.05, seed=s)
        )
        wrong += out.approved
    assert wrong / trials <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / trials)


@st.composite
def kernel_cases(draw):
    """One assertion's draws: unit or batch weights, values on a half-integer
    grid (so mu hits 0 exactly) or anywhere up to twice the bound, reported
    means up to the bound (so u grows), and ballots left undrawn."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=30))
    if draw(st.booleans()):
        sizes = [1] * len(sizes)
    n = sum(sizes) + draw(st.integers(0, 8))
    u0 = draw(st.sampled_from([1.0, 1.5, 2.0]) | st.floats(0.6, 3.0))
    eta0 = 0.5 + draw(st.sampled_from([0.999, 0.5, 0.02]) | st.floats(0.001, 0.999)) * (u0 - 0.5)
    value = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]) | st.floats(0.0, 2 * u0)
    x = draw(st.lists(value, min_size=len(sizes), max_size=len(sizes)))
    alpha = draw(st.sampled_from([0.05, 0.2, 1e-6]))
    floor = eta0 if draw(st.booleans()) else None
    return np.array(x), np.array(sizes), n, eta0, u0, alpha, floor


@given(kernel_cases())
@settings(max_examples=400, deadline=None)
def test_kernel_matches_stepwise_reference(case):
    """sequential_test's trace reproduces the stepwise advance draw by draw, for both eta rules."""
    x, sizes, n, eta0, u0, alpha, floor = case
    path = traced_path(x, np.cumsum(sizes), n, _spec(eta0, u0, floor), EPSILON, 1 / alpha)
    _assert_follows_stepwise(path, x, sizes, n, eta0, u0, alpha, floor)


def _assert_follows_stepwise(path: KernelPath, x, sizes, n, eta0, u0, alpha, floor):
    """``path`` is the stepwise advance's, draw by draw, to a relative 1e-9."""
    cfg = AuditConfig(alpha=alpha)
    ref = AssertionState("ref", eta=eta0, u=u0, eta_budget=n * eta0)
    rows = []  # T after each draw, then the (mu, eta, u) it was tested with
    for value, weight in zip(x, sizes):
        tested = (ref.mu, ref.eta, ref.u)
        advance(ref, float(value), int(weight), n, cfg, floor, EPSILON)
        rows.append((ref.T, *tested))
        if not ref.active:
            break
    rows = np.array(rows)

    common = len(rows)
    if (path.approved, path.examined) != (ref.approved, len(rows)):
        # the two forms of the factor round differently; only a T sitting on
        # the threshold may decide differently
        common = min(path.examined, len(rows))
        assert rows[common - 1, 0] == pytest.approx(1 / alpha, rel=1e-9)
    else:
        assert path.T_max == pytest.approx(ref.T_max, rel=1e-9)
    for col, got in enumerate((path.T, path.mu, path.eta, path.u)):
        np.testing.assert_allclose(got[:common], rows[:common, col], rtol=1e-9)


@st.composite
def kernel_row_cases(draw):
    """Assertion rows along one draw order, each with its own values, start
    and eta rule: rows that stop at different draws or never, all-zero
    rows, values on the half-integer grid (so mu hits 0 exactly), reported
    means near the bound (so u grows in those rows only), and one draw."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=20))
    if draw(st.booleans()):
        sizes = [1] * len(sizes)
    n = sum(sizes) + draw(st.integers(0, 8))
    x, starts = [], []
    for r in range(draw(st.integers(1, 5))):
        u0 = draw(st.sampled_from([1.0, 1.5, 2.0]) | st.floats(0.6, 3.0))
        share = draw(st.sampled_from([0.999, 0.5, 0.02]) | st.floats(0.001, 0.999))
        eta0 = 0.5 + share * (u0 - 0.5)
        value = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]) | st.floats(0.0, 2 * u0)
        row = draw(st.lists(value, min_size=len(sizes), max_size=len(sizes)))
        x.append([0.0] * len(sizes) if draw(st.integers(0, 4)) == 0 else row)
        starts.append((eta0, u0, eta0 if draw(st.booleans()) else None))
    alpha = draw(st.sampled_from([0.05, 0.2, 1e-6]))
    return np.array(x), np.array(sizes), n, starts, alpha


def _bits(rows):
    """Trace rows with their floats as bytes, so NaN compares equal to NaN."""
    return [(r[0], r[1], np.array(r[2:], dtype=float).tobytes()) for r in rows]


@given(kernel_row_cases(), st.sampled_from([1, 2, 3, 7, alpha_mod._BLOCK]))
@settings(max_examples=300, deadline=None)
def test_kernel_rows_match_one_row_calls(case, block):
    """Rows tested in one call, untraced and traced, in blocks of 1, 2, 3, 7
    or the default, give each row the result and trace rows of its own
    one-row call bit for bit, and the trace comes row after row; each row
    follows the stepwise reference."""
    x, sizes, n, starts, alpha = case
    seen = np.cumsum(sizes)
    specs = [AssertionSpec(f"row{r}", *start[:2], True, start[2]) for r, start in enumerate(starts)]
    args, traced = (seen, n), []
    with mock.patch.object(alpha_mod, "_BLOCK", block):
        got = sequential_test(x, *args, specs, 1e-9, 1 / alpha)
        assert sequential_test(x, *args, specs, 1e-9, 1 / alpha, lambda *t: traced.append(t)) == got
    assert [t[1] for t in traced] == [s.label for s, out in zip(specs, got) for _ in range(out[1])]
    for r, spec in enumerate(specs):
        one = []
        assert sequential_test(x[r], *args, spec, 1e-9, 1 / alpha, lambda *t: one.append(t)) == got[r]
        assert _bits([t for t in traced if t[1] == spec.label]) == _bits(one)
        path = KernelPath(*got[r], *(np.array([t[c] for t in one]) for c in range(2, 6)))
        _assert_follows_stepwise(path, x[r], sizes, n, *starts[r][:2], alpha, starts[r][2])


def test_kernel_zero_mu_special_cases():
    """mu exactly 0: a zero draw keeps the (u - eta)/(u - mu) factor, a
    positive one approves; no NaN either way."""
    cfg = AuditConfig(alpha=0.05)
    for last, approved in ((0.0, False), (0.5, True)):
        x = np.array([1.0, 1.0, last, 0.0])
        path = traced_path(x, np.arange(1, 5), 4, _spec(0.9, 1.0), EPSILON, 1 / cfg.alpha)
        assert path.mu[2] == 0.0
        assert not np.isnan(path.T).any()
        assert (path.approved, path.examined) == (approved, 3 if approved else 4)
        ref = AssertionState("ref", eta=0.9, u=1.0)
        for value in x[: path.examined]:
            alpha_step(ref, float(value), cfg, 4, 0.9)
        assert ref.approved == approved
        assert path.T[-1] == pytest.approx(ref.T, rel=1e-12)


def test_alpha_audit_trace_changes_nothing(two_party):
    """A trace hook only observes: same outcome, rows assertion-major, one per
    examined draw, each with T after the draw and the state it was tested with."""
    c, a = two_party
    loser_first = plurality_assorter(c.by_name("Bob"), c.by_name("Alice"), c)
    rep = c.tally({"Alice": 560, "Bob": 440})
    batches = ballot_batch(c.tally({"Alice": 540, "Bob": 460}), rep)
    for seed in range(5):
        cfg = AuditConfig(alpha=0.05, seed=seed)
        rows = []
        traced = alpha_audit(batches, [a, loser_first], cfg, trace=lambda *r: rows.append(r))
        assert traced == alpha_audit(batches, [a, loser_first], cfg)
        examined = traced.assertions[0].examined
        assert [r[0] for r in rows] == list(range(1, examined + 1))
        assert {r[1] for r in rows} == {a.label}  # the refuted assertion is never tested
        assert rows[0][3:] == (0.5, 0.56, 1.0)
        assert all(type(v) is float for r in rows for v in r[2:])


def _kernel_args(x, seen, n, eta0, u0, eps, threshold, floor=None):
    """``sequential_test``'s arguments for ``run_path_reference``'s."""
    return x, seen, n, _spec(eta0, u0, floor), eps, threshold


def _in_blocks(size, fn, *args):
    with mock.patch.object(alpha_mod, "_BLOCK", size):
        return fn(*args)


def _assert_same_path(got, want):
    """Bit for bit: the same stop, T_max and path arrays."""
    assert (got.approved, got.examined, got.T_max) == (want.approved, want.examined, want.T_max)
    for name in ("T", "mu", "eta", "u"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.array_equal(a, b, equal_nan=True) and a.tobytes() == b.tobytes(), name


@given(kernel_cases())
@settings(max_examples=300, deadline=None)
def test_kernel_blocks_match_one_pass(case):
    """Evaluating the draws in blocks of 1, 2, 3 or 7 carries the running sum,
    the (mu, eta, u) state and T across block edges without changing a bit."""
    x, sizes, n, eta0, u0, alpha, floor = case
    args = _kernel_args(x, np.cumsum(sizes), n, eta0, u0, 1e-9, 1 / alpha, floor)
    assert len(x) <= alpha_mod._BLOCK
    whole = traced_path(*args)
    for size in (1, 2, 3, 7):
        _assert_same_path(_in_blocks(size, traced_path, *args), whole)
        got = _in_blocks(size, sequential_test, *args)
        assert got == (whole.approved, whole.examined, whole.T_max)


@pytest.mark.parametrize(
    "x, sizes, n, eta0, u0, threshold, approved, examined",
    [
        (np.ones(50), [1] * 50, 50, 0.9, 1.0, 20.0, True, 5),  # T passes 20 at draw 5
        (np.full(12, 1.6), [1] * 12, 12, 0.9, 3.0, 1e9, True, 4),  # mu < 0 after draw 4
        (np.full(4, 1.6), [1] * 4, 12, 0.9, 3.0, 1e9, True, 4),  # ... the last draw, 8 left
        (np.tile([1.0, 0.0, 0.0], 4), [1] * 12, 12, 0.55, 1.0, 20.0, False, 12),  # exhausted
        (np.array([1.0, 0, 0, 1, 0, 0]), [2, 1, 3, 1, 2, 3], 12, 0.55, 1.0, 20.0, False, 6),
    ],
    ids=["T-crossing", "mu-negative", "mu-negative-last", "exhausted-unit", "exhausted-weighted"],
)
def test_kernel_stop_on_block_edge(x, sizes, n, eta0, u0, threshold, approved, examined):
    """The stopping draw as the last draw of a block and as the first of the
    next: the same stop and the same path as one pass."""
    args = _kernel_args(x, np.cumsum(sizes), n, eta0, u0, 1e-9, threshold)
    whole = traced_path(*args)
    assert (whole.approved, whole.examined) == (approved, examined)
    for size in (examined - 1, examined, 1, 2, 3, 7):
        _assert_same_path(_in_blocks(size, traced_path, *args), whole)


def _stepwise_rows(x, sizes, n, eta0, u0, eps, floor):
    """The stepwise reference's (T after the draw, mu, eta, u it was tested
    with) per draw, with a threshold no T reaches."""
    cfg = AuditConfig(alpha=1e-300)
    ref = AssertionState("ref", eta=eta0, u=u0, eta_budget=n * eta0)
    rows = []
    for value, weight in zip(x, sizes):
        tested = (ref.mu, ref.eta, ref.u)
        advance(ref, float(value), int(weight), n, cfg, floor, eps)
        rows.append((ref.T, *tested))
        if not ref.active:
            break
    return np.array(rows)


def _u_cases():
    rng = make_rng(4)
    agree = 0.5 + 1e-3
    census = np.full(40, agree)  # the census case: a pair's constant row, a few draws off it
    census[[3, 17, 18, 30]] += np.array([-2e-4, 3e-4, -1e-4, 2e-4])
    return {
        # u0 below eta_floor + eps: u steps once, at draw 1, then stays
        "constant-from-draw-1": (census, 400, agree, agree + 1e-10, agree),
        # the new u equals the carried u0 bit for bit
        "equal-to-carried": (census, 400, agree, agree + 1e-9, agree),
        # eta rises above u0 - eps as low draws come in: u grows mid-block
        "growing-mid-block": (np.r_[np.ones(3), np.zeros(12)], 20, 0.95, 1.0, None),
        # the common ballot-level case: u stays the assorter bound u0
        "bound-holds": (rng.integers(0, 2, 40).astype(float), 60, 0.55, 1.0, None),
    }


@pytest.mark.parametrize("case", list(_u_cases()))
def test_kernel_running_max_of_u(case):
    """Whether u is constant after a block's first entry or grows inside it,
    the path is the stepwise reference's, and blocks of 1, 2, 3 and 7 match
    one pass bit for bit."""
    x, n, eta0, u0, floor = _u_cases()[case]
    args = _kernel_args(x, np.arange(1, len(x) + 1), n, eta0, u0, 1e-9, math.inf, floor)
    whole = traced_path(*args)
    rows = _stepwise_rows(x, np.ones(len(x)), n, eta0, u0, 1e-9, floor)
    assert whole.examined == len(rows) == len(x)
    for col, got in enumerate((whole.T, whole.mu, whole.eta, whole.u)):
        np.testing.assert_allclose(got, rows[:, col], rtol=1e-9)
    assert whole.T_max == pytest.approx(rows[:, 0].max(), rel=1e-9)
    steps = np.flatnonzero(np.diff(whole.u))
    if floor is not None:
        assert whole.u[0] == u0 and np.all(whole.u[1:] == floor + 1e-9)
        assert steps.tolist() == ([] if case == "equal-to-carried" else [0])
    elif case == "growing-mid-block":
        assert steps.size > 1 and steps[0] > 0
    else:
        assert np.all(whole.u == u0)
    for size in (1, 2, 3, 7):
        _assert_same_path(_in_blocks(size, traced_path, *args), whole)


def _assert_matches_reference(*args):
    """``sequential_test``, traced and untraced, in blocks of 1, 2, 3, 7 and
    the default equals the running-max reference bit for bit."""
    blocks = []
    head = run_path_reference(*args, keep=blocks)
    want = KernelPath(*head, *(np.concatenate(c) for c in zip(*blocks)))
    for size in (1, 2, 3, 7, alpha_mod._BLOCK):
        _assert_same_path(_in_blocks(size, traced_path, *_kernel_args(*args)), want)
        assert _in_blocks(size, sequential_test, *_kernel_args(*args)) == head
    return want


@given(kernel_cases())
@settings(max_examples=300, deadline=None)
def test_kernel_matches_running_max_reference(case):
    """Keeping u as one float where it is constant changes no bit of the
    path, for both eta rules, unit and batch weights."""
    x, sizes, n, eta0, u0, alpha, floor = case
    _assert_matches_reference(x, np.cumsum(sizes), n, eta0, u0, 1e-9, 1 / alpha, floor)


@pytest.mark.parametrize("case", list(_u_cases()))
def test_kernel_u_regimes_match_running_max_reference(case):
    """u constant from draw 1, equal to the carried u, growing mid-block and
    at the bound, each against the running-max reference."""
    x, n, eta0, u0, floor = _u_cases()[case]
    _assert_matches_reference(x, np.arange(1, len(x) + 1), n, eta0, u0, 1e-9, math.inf, floor)


@pytest.mark.parametrize(
    "x, n, eta0, u0, zero, step",
    [
        # mu is 0 from draw 3 on; in blocks of 2, draw 7 heads the last block
        # and u steps at draw 8: entry 0 is recomputed with the carried u
        ([2.0, 2, 0, 0, 0, 0, 0, 0], 8, 0.9, 0.95, 7, 8),
        # in blocks of 3, draw 5 is entry 1 of its block, tested with mu 0 and
        # the u that stepped after entry 0; mu < 0 after it stops the test
        ([1.0, 1, 0.5, 0.5, 2], 6, 0.9, 1.0, 5, 5),
    ],
    ids=["zero-mu-at-entry-0", "zero-mu-at-entry-1"],
)
def test_kernel_zero_mu_where_u_steps(x, n, eta0, u0, zero, step):
    """mu exactly 0 on the entry tested with the carried u, and on the one
    after it, where u has stepped."""
    seen = np.arange(1, len(x) + 1)
    path = _assert_matches_reference(np.array(x), seen, n, eta0, u0, 1e-9, math.inf)
    assert path.examined == len(x)
    assert path.mu[zero - 1] == 0.0 and path.u[step - 1] > path.u[step - 2]


@pytest.mark.parametrize(
    "x, floor",
    [
        ([1.0, 0, math.nan, 1, 0, 1, 0, 1, 0, 0], None),  # NaN from draw 3 on
        ([1.0, 0, 1, 0, 1, 0, 1, 0, 0, 1], math.nan),  # NaN in every eta from draw 2 on
    ],
    ids=["nan-draw", "nan-floor"],
)
def test_kernel_nan_in_u_matches_running_max_reference(x, floor):
    """A NaN in eta + eps fails the constant-u check and takes the running max."""
    path = _assert_matches_reference(np.array(x), np.arange(1, 11), 12, 0.6, 1.0, 1e-9, 20.0,
                                     floor)
    assert np.isnan(path.u).any()


def test_audits_in_blocks_match_one_pass(two_party):
    """All three election audits give the same outcome and trace rows when
    the kernel runs in blocks of 7 draws, traced or not."""
    c, a = two_party
    rep = c.tally({"Alice": 560, "Bob": 440})
    truth = c.tally({"Alice": 540, "Bob": 460})
    ballots = ballot_batch(truth, rep)
    batches = batch_matrix([
        BatchRecord(f"b{i}", c.tally({"Alice": 28, "Bob": 22}), c.tally({"Alice": 27, "Bob": 23}), 50)
        for i in range(20)
    ])
    audits = [
        lambda cfg, trace: alpha_audit(ballots, [a], cfg, trace=trace),
        lambda cfg, trace: alpha_batch_audit(batches, [a], cfg, trace=trace),
        lambda cfg, trace: batchcomp_audit(batches, [a], cfg, trace=trace),
    ]
    for audit in audits:
        for seed in range(3):
            cfg = AuditConfig(alpha=0.05, seed=seed)
            rows, block_rows = [], []
            whole = audit(cfg, lambda *r: rows.append(r))
            assert _in_blocks(7, audit, cfg, lambda *r: block_rows.append(r)) == whole
            assert _in_blocks(7, audit, cfg, None) == whole
            assert block_rows == rows and len(rows) > 7  # several blocks
