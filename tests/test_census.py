import math
from fractions import Fraction
from itertools import permutations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from electaudit.alpha import AuditConfig
from electaudit.apportionment import AllocationTieError
from electaudit import census as census_mod
from electaudit.census import (
    CensusData,
    CensusModel,
    CensusPair,
    Household,
    apportion,
    census_pair,
    census_rla,
    generate_census_population,
    inject_survey_disagreement,
    load_districts_csv,
    load_households_csv,
)
from electaudit.randomness import make_rng

from .helpers import (
    census_assorter_value,
    chi_square,
    comparison_assorter_value,
    inject_survey_disagreement_reference,
    sample_household,
)

HALF = Fraction(1, 2)


def test_apportion_dhondt_reduction():
    m = CensusModel(states=("X", "Y", "Z"), representatives=5, constants={})
    assert apportion(m, {"X": 100, "Y": 60, "Z": 40}) == {"X": 3, "Y": 1, "Z": 1}


def test_apportion_single_state():
    m = CensusModel(states=("X",), representatives=9, constants={})
    assert apportion(m, {"X": 1234}) == {"X": 9}


def test_apportion_tie_detected():
    m = CensusModel(states=("X", "Y"), representatives=3, constants={})
    with pytest.raises(AllocationTieError, match="apportionment tie"):
        apportion(m, {"X": 10, "Y": 10})


def test_apportion_constant_shifts_rows():
    m = CensusModel(states=("X", "Y"), representatives=3, constants={"Y": 50})
    assert apportion(m, {"X": 100, "Y": 60}) == {"X": 1, "Y": 2}
    m0 = CensusModel(states=("X", "Y"), representatives=3, constants={})
    assert apportion(m0, {"X": 100, "Y": 60}) == {"X": 2, "Y": 1}


def _household_fixture():
    counts_x = [3, 2, 2, 1]
    counts_y = [1, 1, 2]
    hh = [Household(f"x{i}", "X", c, c) for i, c in enumerate(counts_x)]
    hh += [Household(f"y{i}", "Y", c, c) for i, c in enumerate(counts_y)]
    model = CensusModel(states=("X", "Y"), representatives=3, constants={}, g_max=3)
    return model, hh


def test_pair_constants_positive():
    model, hh = _household_fixture()
    data = CensusData.from_households(model, hh)
    seats = apportion(model, data.census_pops)
    for s1, s2 in (("X", "Y"), ("Y", "X")):
        pair = census_pair(data, seats, s1, s2)
        assert pair.c > 0
        assert pair.z > pair.m > 0


def test_census_assorter_boundary_values():
    model, hh = _household_fixture()
    data = CensusData.from_households(model, hh)
    seats = apportion(model, data.census_pops)
    pair = census_pair(data, seats, "X", "Y")
    # maximal-occupancy household in s2 zeroes the second term entirely
    h_max = Household("q", "Y", 3, 3)
    assert census_assorter_value(pair, h_max, use_pes=True) == 0
    with pytest.raises(ValueError, match="no survey count"):
        census_assorter_value(pair, Household("r", "Y", 2, None), use_pes=True)


def test_census_assorter_constant_off_pair():
    model3 = CensusModel(states=("X", "Y", "W"), representatives=4, constants={}, g_max=3)
    hh = [Household(f"x{i}", "X", c, c) for i, c in enumerate([3, 2, 2, 1])]
    hh += [Household(f"y{i}", "Y", c, c) for i, c in enumerate([1, 1, 2])]
    hh += [Household(f"w{i}", "W", c, c) for i, c in enumerate([3, 3, 1])]
    data = CensusData.from_households(model3, hh)
    seats = apportion(model3, data.census_pops)
    pair = census_pair(data, seats, "X", "Y")
    expected = Fraction(model3.g_max, pair.d2) / pair.c
    for g in range(4):
        h = Household("w", "W", g, g)
        assert census_assorter_value(pair, h, use_pes=True) == expected
        assert census_assorter_value(pair, h, use_pes=False) == expected


def _mean_pes(pair, households):
    return sum(census_assorter_value(pair, h, use_pes=True) for h in households) / len(households)


def test_household_assorter_matches_inequality_exhaustively():
    """mean of the survey assorter > 1/2 iff the pairwise seat inequality holds.

    The assorter is affine in the per-state survey sums, so sweeping every
    reachable (sum_1, sum_2) combination covers every possible mean; 4+4
    households with counts up to 3.
    """
    model, base = _household_fixture()
    base = base + [Household("y3", "Y", 1, 1)]
    data = CensusData.from_households(model, base)
    seats = apportion(model, data.census_pops)
    c1, c2 = model.constants["X"], model.constants["Y"]
    for s1, s2 in (("X", "Y"), ("Y", "X")):
        pair = census_pair(data, seats, s1, s2)
        d1, d2 = pair.d1, pair.d2
        xs = [h for h in base if h.state == "X"]
        ys = [h for h in base if h.state == "Y"]
        for sum_x, sum_y in product(range(0, 13), range(0, 13)):
            pes_x = _counts_with_sum(sum_x, len(xs), model.g_max)
            pes_y = _counts_with_sum(sum_y, len(ys), model.g_max)
            if pes_x is None or pes_y is None:
                continue
            hh = [
                Household(h.id, h.state, h.census_count, p)
                for h, p in zip(xs + ys, pes_x + pes_y)
            ]
            mean = _mean_pes(pair, hh)
            sums = {"X": sum_x, "Y": sum_y}
            lhs = Fraction(sums[s1] + (c1 if s1 == "X" else c2), d1)
            rhs = Fraction(sums[s2] + (c1 if s2 == "X" else c2), d2)
            assert (mean > HALF) == (lhs > rhs), (s1, s2, sum_x, sum_y)


def _counts_with_sum(total, slots, g_max):
    if total > slots * g_max:
        return None
    counts = []
    left = total
    for _ in range(slots):
        take = min(left, g_max)
        counts.append(take)
        left -= take
    return counts


def test_assorter_mean_depends_only_on_state_sums():
    model, base = _household_fixture()
    data = CensusData.from_households(model, base)
    seats = apportion(model, data.census_pops)
    pair = census_pair(data, seats, "X", "Y")
    rng = make_rng(8)
    reference = None
    for _ in range(40):
        # random survey counts with fixed per-state sums 5 and 3
        pes_x = _random_counts(rng, 5, 4, model.g_max)
        pes_y = _random_counts(rng, 3, 3, model.g_max)
        hh = [
            Household(h.id, h.state, h.census_count, p)
            for h, p in zip(base, pes_x + pes_y)
        ]
        mean = _mean_pes(pair, hh)
        if reference is None:
            reference = mean
        assert mean == reference


def _random_counts(rng, total, slots, g_max):
    while True:
        counts = [int(rng.integers(0, g_max + 1)) for _ in range(slots - 1)]
        left = total - sum(counts)
        if 0 <= left <= g_max:
            return counts + [left]


def test_comparison_assorter_never_negative():
    """Exhaustive sweep over census/survey count pairs in every pair role."""
    model, base = _household_fixture()
    data = CensusData.from_households(model, base)
    seats = apportion(model, data.census_pops)
    g = model.g_max
    for s1, s2 in (("X", "Y"), ("Y", "X")):
        pair = census_pair(data, seats, s1, s2)
        for state in ("X", "Y"):
            for cen, pes in product(range(g + 1), repeat=2):
                h = Household("h", state, cen, pes)
                assert comparison_assorter_value(pair, h) >= 0, (s1, s2, state, cen, pes)


def test_comparison_assorter_agreement_constant():
    model, base = _household_fixture()
    data = CensusData.from_households(model, base)
    seats = apportion(model, data.census_pops)
    pair = census_pair(data, seats, "X", "Y")
    values = {
        comparison_assorter_value(pair, Household("h", st, g, g))
        for st in ("X", "Y")
        for g in range(model.g_max + 1)
    }
    assert values == {pair.agree_value}


def test_comparison_mean_crosses_half_with_survey_mean():
    """mean A > 1/2 iff mean a_pes > 1/2, swept over survey sums."""
    model, base = _household_fixture()
    data = CensusData.from_households(model, base)
    seats = apportion(model, data.census_pops)
    pair = census_pair(data, seats, "X", "Y")
    xs = [h for h in base if h.state == "X"]
    ys = [h for h in base if h.state == "Y"]
    for sum_x, sum_y in product(range(0, 13), range(0, 10)):
        pes_x = _counts_with_sum(sum_x, len(xs), model.g_max)
        pes_y = _counts_with_sum(sum_y, len(ys), model.g_max)
        if pes_x is None or pes_y is None:
            continue
        hh = [
            Household(h.id, h.state, h.census_count, p)
            for h, p in zip(xs + ys, pes_x + pes_y)
        ]
        mean_a = _mean_pes(pair, hh)
        mean_A = sum(comparison_assorter_value(pair, h) for h in hh) / len(hh)
        assert (mean_A > HALF) == (mean_a > HALF), (sum_x, sum_y)


def test_allocation_equivalence_theorem_small():
    """Apportionments match iff every ordered-pair inequality holds.

    Both sides depend on the survey only through per-state sums, so the sweep
    over sums is exhaustive for 2 states, 7 households, counts up to 3.
    """
    model, base = _household_fixture()
    data = CensusData.from_households(model, base)
    census_seats = apportion(model, data.census_pops)
    pairs = {}
    for s1, s2 in (("X", "Y"), ("Y", "X")):
        if census_seats[s1] == 0:
            continue
        pairs[(s1, s2)] = census_pair(data, census_seats, s1, s2)
    max_x, max_y = 4 * model.g_max, 3 * model.g_max
    checked = 0
    for sum_x, sum_y in product(range(max_x + 1), range(max_y + 1)):
        try:
            pes_seats = apportion(model, {"X": sum_x, "Y": sum_y})
        except (AllocationTieError, ValueError):
            continue
        holds = all(
            Fraction(sum_x if s1 == "X" else sum_y, p.d1)
            > Fraction(sum_x if s2 == "X" else sum_y, p.d2)
            for (s1, s2), p in pairs.items()
        )
        assert holds == (pes_seats == census_seats), (sum_x, sum_y)
        checked += 1
    assert checked > 50


def test_sample_household_uniform_over_remaining():
    """Composed with a random survey, the draw is uniform over H1."""
    frame = [Household(f"f{i}", "X", 1, 1) for i in range(6)]
    outside = [Household(f"o{i}", "X", 1, None, in_pes_frame=False) for i in range(4)]
    h1 = frame + outside
    rng = make_rng(55)
    counts = {h.id: 0 for h in h1}
    draws = 100_000
    for _ in range(draws):
        surveyed = [frame[i] for i in rng.choice(6, size=3, replace=False)]
        pick = sample_household(h1, h1, frame, surveyed, rng)
        counts[pick.id] += 1
    expect = draws / len(h1)
    sigma = math.sqrt(draws * (1 / len(h1)) * (1 - 1 / len(h1)))
    for hid, c in counts.items():
        assert abs(c - expect) <= 4 * sigma, (hid, c, expect)


def test_sample_household_all_in_frame_draws_surveyed():
    hh = [Household(f"h{i}", "X", 1, 1) for i in range(8)]
    surveyed = hh[:3]
    rng = make_rng(2)
    for _ in range(200):
        assert sample_household(hh, hh, hh, surveyed, rng).id in {h.id for h in surveyed}


def test_sample_household_single_candidate():
    hh = [Household("only", "X", 1, 1)]
    rng = make_rng(3)
    assert sample_household(hh, hh, hh, hh, rng).id == "only"


def test_sample_household_exhausted_branch_errors():
    # the only household is in the frame but unsurveyed: the frame branch is
    # chosen with probability 1 yet has nothing surveyed to offer
    lone = [Household("h", "X", 1, None)]
    rng = make_rng(4)
    with pytest.raises(ValueError, match="sampling frame exhausted|no household"):
        sample_household(lone, lone, lone, [], rng)


# 99.9% quantile of chi-square with 101 degrees of freedom, fixed before any run
CHI2_999_DF101 = 150.67


@pytest.mark.parametrize("draw", ["vectorised", "sample_household_reference"])
def test_household_draw_follows_sample_household_law(draw):
    """Households 0-2 are surveyed, 3-5 in the frame but not surveyed, 6-9
    outside the frame.  A draw ends after its 3rd frame draw, having taken K
    non-frame households first, where K is negative hypergeometric:
    P(K = k) = C(2 + k, k) C(7 - k, 4 - k) / C(10, 4).  Given K, the surveyed
    order is uniform over the 3! orders and the first non-frame household
    uniform over the 4.  The cells are (K, surveyed order, first non-frame)."""
    frame = np.arange(10) < 6
    surveyed = np.arange(3)
    split = {k: math.comb(2 + k, k) * math.comb(7 - k, 4 - k) / math.comb(10, 4) for k in range(5)}
    probs = {}
    for k, p_k in split.items():
        for order in permutations(range(3)):
            for first in range(6, 10) if k else [None]:
                probs[(k, order, first)] = p_k / 6 / (4 if k else 1)
    households = [Household(str(i), "X", 1, 1 if i < 3 else None, bool(frame[i])) for i in range(10)]
    rng, draws, counts = make_rng(21), 10_000, {}
    for _ in range(draws):
        if draw == "vectorised":
            drawn = census_mod._draw_households(surveyed, frame, rng).tolist()
        else:
            left, drawn = list(households), []
            while any(h.surveyed for h in left):
                pick = sample_household(left, households, households[:6], households[:3], rng)
                left.remove(pick)
                drawn.append(int(pick.id))
        outside = [i for i in drawn if i >= 6]
        assert sorted(i for i in drawn if i < 6) == [0, 1, 2]
        key = (len(outside), tuple(i for i in drawn if i < 3), outside[0] if outside else None)
        counts[key] = counts.get(key, 0) + 1
    assert chi_square(counts, probs, draws) < CHI2_999_DF101


def test_household_draw_all_in_frame_is_one_shuffle_of_the_surveyed():
    surveyed = np.flatnonzero(make_rng(1).random(50) < 0.3)
    drawn = census_mod._draw_households(surveyed, np.ones(50, bool), make_rng(9))
    assert drawn.tolist() == make_rng(9).permutation(surveyed).tolist()
    assert census_mod._draw_households(surveyed[:0], np.ones(50, bool), make_rng(9)).size == 0


def test_census_rla_no_survey_gives_risk_one():
    model, base = _household_fixture()
    silent = [Household(h.id, h.state, h.census_count, None) for h in base]
    data = CensusData.from_households(model, silent)
    out = census_rla(data, AuditConfig(alpha=1.0, seed=0))
    assert out.risk_limit == 1.0
    assert all(r == 1.0 for r in out.pair_risks.values())
    assert out.households_examined == 0


def test_census_rla_agreement_improves_with_more_survey():
    model, base = _household_fixture()
    big = [
        Household(f"X{i}", "X", 2, 2) for i in range(300)
    ] + [Household(f"Y{i}", "Y", 1, 1) for i in range(150)]
    data = CensusData.from_households(model, big)
    risks = []
    for k in (50, 150, 300):
        mask = np.zeros(data.n, dtype=bool)
        mask[make_rng((k, 7)).choice(data.n, size=k, replace=False)] = True
        out = census_rla(data, AuditConfig(alpha=1.0, seed=1), surveyed_mask=mask)
        risks.append(out.risk_limit)
    assert risks[0] >= risks[1] >= risks[2]


def test_census_rla_supplied_allocation_with_nonpositive_margin():
    model, base = _household_fixture()
    data = CensusData.from_households(model, base)
    honest = apportion(model, data.census_pops)
    assert honest == {"X": 2, "Y": 1}
    skewed = {"X": 1, "Y": 2}  # census numbers refute this allocation outright
    out = census_rla(data, AuditConfig(alpha=1.0, seed=0), census_seats=skewed)
    assert out.risk_limit == 1.0
    assert out.pair_risks[("Y", "X")] == 1.0


def _agreement_risk_closed_form(pair: CensusPair, n: int, k: int) -> float:
    """Risk after k agreeing draws: 1 / max_j prod_{i<j} agree / mu_i.

    mu_i is the mean the remaining n - i households need under the null once
    i draws have each scored the agreement constant.
    """
    agree = float(pair.agree_value)
    T = T_max = 1.0
    mu = 0.5
    for i in range(1, k + 1):
        T *= agree / mu
        T_max = max(T_max, T)
        mu = (0.5 * n - i * agree) / (n - i)
    return min(1.0, 1.0 / T_max)


def test_census_rla_agreement_risk_matches_closed_form():
    """With a survey that agrees everywhere, every pair's risk is the closed
    form, so the reported risk depends on the inputs only through each pair's
    m/z, the household count and the sample size."""
    rng = make_rng(41)
    data = generate_census_population(
        {"X": 6100, "Y": 3900, "Z": 2300}, {1: 0.3, 2: 0.4, 3: 0.3}, 0.01, rng, representatives=7
    )
    seats = apportion(data.model, data.census_pops)
    for frac in (0.05, 0.1):
        k = round(frac * data.n)
        mask = np.zeros(data.n, dtype=bool)
        mask[rng.choice(data.n, size=k, replace=False)] = True
        out = census_rla(data, AuditConfig(alpha=1.0, seed=3), surveyed_mask=mask)
        assert out.households_examined == k
        expected = {}
        for s1, s2 in out.pair_risks:
            pair = census_pair(data, seats, s1, s2)
            assert pair.m > 0
            expected[(s1, s2)] = _agreement_risk_closed_form(pair, data.n, k)
        for key, risk in out.pair_risks.items():
            assert math.isclose(risk, expected[key], rel_tol=1e-5), (key, risk, expected[key])
        assert 0.001 < out.risk_limit < 0.5  # the binding pair is informative
        assert out.risk_limit == max(out.pair_risks.values())


def test_census_rla_state_risks_cover_pairs():
    model, base = _household_fixture()
    out = census_rla(CensusData.from_households(model, base), AuditConfig(alpha=1.0, seed=0))
    for s in model.states:
        relevant = [r for (a, b), r in out.pair_risks.items() if s in (a, b)]
        assert out.state_risks[s] == max(relevant)


def test_generation_degenerate_distribution():
    rng = make_rng(10)
    data = generate_census_population(
        {"X": 1000, "Y": 600}, {2: 1.0}, nonresponse=0.0, rng=rng, representatives=3, g_max=5
    )
    assert np.all(data.cen == 2) and np.all(data.pes == 2) and np.all(data.has_pes)
    assert np.count_nonzero(data.state_idx == data.model.states.index("X")) == 500
    assert apportion(data.model, data.census_pops) == apportion(data.model, {"X": 1000, "Y": 600})


def test_generation_constant_fixes_apportionment():
    rng = make_rng(11)
    pops = {"X": 5000, "Y": 3100, "Z": 900}
    dist = {1: 0.3, 2: 0.4, 3: 0.3}
    data = generate_census_population(pops, dist, 0.01, rng, representatives=5)
    generated = apportion(data.model, data.census_pops)
    real = apportion(data.model, pops)
    assert generated == real


def test_generation_nonresponse_rate():
    rng = make_rng(12)
    data = generate_census_population(
        {"X": 40000}, {2: 1.0}, nonresponse=0.1, rng=rng, representatives=1
    )
    zeros = np.count_nonzero(data.cen == 0)
    n = data.n
    assert abs(zeros - 0.1 * n) <= 4 * math.sqrt(n * 0.1 * 0.9)


def test_inject_disagreement_rate():
    rng = make_rng(13)
    data = generate_census_population(
        {"X": 30000}, {1: 0.5, 2: 0.5}, nonresponse=0.0, rng=rng, representatives=1
    )
    bumped = inject_survey_disagreement(data, 0.25, {1: 0.5, 2: 0.5}, rng)
    changed = np.count_nonzero(data.pes != bumped.pes)
    redrawn_same = 0.5  # a redraw matches the old count half the time here
    n = data.n
    expect = 0.25 * n * redrawn_same
    assert abs(changed - expect) <= 5 * math.sqrt(n)


def test_inject_disagreement_leaves_unsurveyed_households():
    model = CensusModel(states=("X",), representatives=1, constants={}, g_max=3)
    data = CensusData(model, [0] * 4, [1] * 4, has_pes=[True, False, True, False])
    bumped = inject_survey_disagreement(data, 1.0, {3: 1.0}, make_rng(0))
    assert bumped.pes.tolist() == [3, 1, 3, 1]
    assert bumped.has_pes.tolist() == data.has_pes.tolist()


def test_median_risk_monotone_in_sample_size():
    """Across a sample-size grid, the median risk limit never goes back up.

    Checked with 5% survey disagreement, eleven paired trials per fraction.
    """
    pops = {"X": 41000, "Y": 23000, "Z": 17000}
    dist = {1: 0.4, 2: 0.4, 3: 0.2}
    fractions = (0.02, 0.05, 0.1, 0.2)
    medians = []
    risks = {f: [] for f in fractions}
    for trial in range(11):
        data_rng = make_rng((trial, 0))
        data = generate_census_population(pops, dist, 0.01, data_rng, representatives=8)
        data = inject_survey_disagreement(data, 0.05, dist, data_rng)
        for f in fractions:
            k = round(f * data.n)
            mask = np.zeros(data.n, dtype=bool)
            mask[data_rng.choice(data.n, size=k, replace=False)] = True
            out = census_rla(data, AuditConfig(alpha=1.0, seed=(trial, 1)), surveyed_mask=mask)
            risks[f].append(out.risk_limit)
    import statistics

    medians = [statistics.median(risks[f]) for f in fractions]
    assert all(a >= b for a, b in zip(medians, medians[1:])), medians


def test_counts_above_gmax_rejected():
    model = CensusModel(states=("X",), representatives=1, constants={}, g_max=3)
    with pytest.raises(ValueError, match="outside"):
        CensusData.from_households(model, [Household("h", "X", 4, None)])
    # arrays are checked by vectorised tests that name the first bad household
    with pytest.raises(ValueError, match=r"household 1 census count 4 outside \[0, 3\]"):
        CensusData(model, [0, 0], [2, 4])
    with pytest.raises(ValueError, match=r"household 0 survey count -1 outside \[0, 3\]"):
        CensusData(model, [0, 0], [2, 2], pes=[-1, 2])
    # an unsurveyed household's survey entry is not a count
    assert CensusData(model, [0], [2], pes=[-1], has_pes=[False]).census_pops == {"X": 2}


@pytest.mark.parametrize(
    "columns, message",
    [
        (([0, 1], [1, 1]), r"household 1 state index 1 outside \[0, 0\]"),
        (([-1], [1]), r"household 0 state index -1 outside \[0, 0\]"),
        (([0, 0], [1]), "one length"),
        (([0], [1], [1, 1]), "one length"),
        (([0], [1], None, [True], [True, False]), "one length"),
        (([[0]], [[1]]), "one-dimensional"),
        (([], []), "no households"),
    ],
)
def test_census_data_rejects_malformed_arrays(columns, message):
    model = CensusModel(states=("X",), representatives=1, constants={}, g_max=3)
    with pytest.raises(ValueError, match=message):
        CensusData(model, *columns)


def test_model_needs_a_state():
    with pytest.raises(ValueError, match="no states"):
        CensusModel(states=(), representatives=1, constants={})
    with pytest.raises(ValueError, match="no states"):
        generate_census_population({}, {1: 1.0}, 0.0, make_rng(0), representatives=1)


def test_census_data_from_arrays_matches_household_rows():
    model, hh = _household_fixture()
    hh = hh + [Household("z", "Y", 2, None, in_pes_frame=False)]
    rows = CensusData.from_households(model, hh)
    assert rows.state_idx.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
    assert rows.pes.tolist() == rows.cen.tolist() == [3, 2, 2, 1, 1, 1, 2, 2]
    assert rows.has_pes.tolist() == rows.in_frame.tolist() == [True] * 7 + [False]
    assert rows.census_pops == {"X": 8, "Y": 6}
    assert rows.state_totals(np.ones(rows.n, dtype=np.int64)) == {"X": 4, "Y": 4}
    with pytest.raises(ValueError, match="unknown state 'W'"):
        CensusData.from_households(model, [Household("w", "W", 1, 1)])
    with pytest.raises(ValueError, match="duplicate household id 'x0'"):
        CensusData.from_households(model, hh + [hh[0]])


def test_district_and_household_csv(tmp_path):
    d = tmp_path / "districts.csv"
    d.write_text("district,population,c_constant\nX,100,0\nY,60,5\n")
    pops, constants = load_districts_csv(d)
    assert pops == {"X": 100, "Y": 60}
    assert constants["Y"] == 5
    h = tmp_path / "households.csv"
    h.write_text(
        "household_id,district,census_count,pes_count,surveyed\n"
        "a,X,2,2,1\n"
        "b,X,3,,0\n"
    )
    hh = load_households_csv(h)
    assert hh[0].surveyed and hh[0].pes_count == 2
    assert not hh[1].surveyed and hh[1].pes_count is None
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "household_id,district,census_count,pes_count,surveyed\n"
        "a,X,2,,1\n"
    )
    with pytest.raises(ValueError, match="lacks pes_count"):
        load_households_csv(bad)


@pytest.mark.parametrize("probs", [
    [0.1, 0.2, 0.3, 0.4],
    [0.0, 0.5, 0.0, 0.5],  # zero-probability sizes are never drawn
    [0.0, 0.0, 1.0, 0.0],
    [1e-300, 1.0, 0.0, 2.0],
])
@pytest.mark.parametrize("n", [1, 2, 17, 1000])
def test_choice_is_its_inverse_cdf_of_uniforms(probs, n):
    """``Generator.choice(a, n, p=p)`` is ``a[cdf.searchsorted(random(n), "right")]``
    with ``cdf = p.cumsum(); cdf /= cdf[-1]``, and ``census._draw_sizes`` of
    ``random(n)`` is the same; both leave the generator at the same position:
    the stream that census generation and survey injection take over."""
    sizes = np.array([0, 1, 3, 7], dtype=np.int64)
    p = np.array(probs) / np.sum(probs)
    cdf = p.cumsum()
    cdf /= cdf[-1]
    for seed in range(40):
        chosen, mapped, counted = make_rng(seed), make_rng(seed), make_rng(seed)
        want = chosen.choice(sizes, size=n, p=p)
        got = sizes[cdf.searchsorted(mapped.random(n), side="right")]
        drawn = census_mod._draw_sizes(sizes, p, counted.random(n))
        assert got.tolist() == want.tolist() == drawn.tolist()
        assert mapped.bit_generator.state == chosen.bit_generator.state
        assert counted.bit_generator.state == chosen.bit_generator.state
        for size, prob in zip(sizes, probs):
            if prob == 0:
                assert size not in drawn


@st.composite
def injection_cases(draw):
    n = draw(st.integers(1, 60))
    states = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    cen = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    has_pes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    pes = [c if h else 0 for c, h in zip(cen, has_pes)]
    support = draw(st.lists(st.integers(0, 5), min_size=1, max_size=6, unique=True))
    weights = draw(st.lists(st.sampled_from([0.0, 1e-9, 0.25, 1.0, 3.0]),
                            min_size=len(support), max_size=len(support)))
    if sum(weights) == 0:
        weights[0] = 1.0
    rate = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]) | st.floats(0.0, 1.0))
    return (states, cen, pes, has_pes), dict(zip(support, weights)), rate, draw(st.integers(0, 2**32))


@given(injection_cases())
@settings(max_examples=200, deadline=None)
def test_injection_matches_choice_reference(case):
    """Mapping only the redrawn households' uniforms gives the survey counts
    and the generator position of a ``rng.choice`` redraw of every household."""
    columns, dist, rate, seed = case
    model = CensusModel(states=("X", "Y", "Z"), representatives=3, constants={}, g_max=5)
    data = CensusData(model, *columns)
    got_rng, want_rng = make_rng(seed), make_rng(seed)
    got = inject_survey_disagreement(data, rate, dist, got_rng)
    want = inject_survey_disagreement_reference(data, rate, dist, want_rng)
    assert got.pes.tolist() == want.pes.tolist() and got.pes.dtype == want.pes.dtype
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert got.census_pops == want.census_pops
    assert data.pes.tolist() == columns[2]  # the input is left alone


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("dist", [{1: -0.5, 2: 1.0}, {1: float("nan")}, {1: 0.0, 2: 0.0},
                                  {1: float("inf")}, {1: 1e308, 2: 1e308}, {}])
def test_injection_rejects_a_bad_size_distribution(dist):
    model = CensusModel(states=("X",), representatives=1, constants={}, g_max=3)
    data = CensusData(model, [0, 0], [1, 2])
    with pytest.raises(ValueError, match="household size distribution"):
        inject_survey_disagreement(data, 0.5, dist, make_rng(0))


def test_derived_survey_counts_are_checked_like_a_new_census():
    """New survey counts, set directly or by injection, keep the array check
    and its message; the census columns and totals are shared, not rebuilt."""
    model = CensusModel(states=("X",), representatives=1, constants={}, g_max=3)
    data = CensusData(model, [0, 0, 0], [1, 2, 3], has_pes=[True, False, True])
    with pytest.raises(ValueError, match=r"household 2 survey count 4 outside \[0, 3\]"):
        data.with_pes([1, 2, 4])
    with pytest.raises(ValueError, match=r"household 0 survey count -1 outside \[0, 3\]"):
        data.with_pes([-1, 2, 3])
    with pytest.raises(ValueError, match="one length"):
        data.with_pes([1, 2])
    with pytest.raises(ValueError, match=r"household 0 survey count 9 outside \[0, 3\]"):
        inject_survey_disagreement(data, 1.0, {9: 1.0}, make_rng(0))
    copy = data.with_pes([0, -7, 0])  # an unsurveyed household's entry is not a count
    assert copy.census_pops is data.census_pops and copy.cen is data.cen
    assert copy.pes.tolist() == [0, -7, 0] and data.pes.tolist() == [1, 2, 3]


def _fresh(data):
    return CensusData(data.model, data.state_idx, data.cen, data.pes, data.has_pes, data.in_frame)


def test_pair_tests_are_built_once_and_reused_for_every_mask():
    """Every survey mask on one census gives the outcome of an audit of a
    fresh copy, while the pair constants are built only on the first call;
    another delta or supplied allocation builds its own."""
    rng = make_rng(17)
    dist = {1: 0.3, 2: 0.4, 3: 0.3}
    data = generate_census_population(
        {"X": 6100, "Y": 3900, "Z": 2300}, dist, 0.01, rng, representatives=7
    )
    data = inject_survey_disagreement(data, 0.05, dist, rng)
    seats = apportion(data.model, data.census_pops)
    other = {"X": seats["X"] - 1, "Y": seats["Y"] + 1, "Z": seats["Z"]}
    masks = []
    for frac in (0.02, 0.05, 0.1):
        mask = np.zeros(data.n, dtype=bool)
        mask[rng.choice(data.n, size=round(frac * data.n), replace=False)] = True
        masks.append(mask)
    cfgs = [AuditConfig(alpha=1.0, seed=seed) for seed in range(len(masks))]
    for kwargs in ({}, {"delta": 1e-4}, {"census_seats": other}, {"census_seats": seats}):
        with mock.patch.object(census_mod, "census_pair", wraps=census_mod.census_pair) as built:
            got = [census_rla(data, c, surveyed_mask=m, **kwargs) for c, m in zip(cfgs, masks)]
        assert built.call_count == 6  # 3 states: one build per ordered pair, not per mask
        for c, m, out in zip(cfgs, masks, got):
            assert out == census_rla(_fresh(data), c, surveyed_mask=m, **kwargs)
    assert len(data._pair_tests) == 4
    # the reported allocation is the caller's to keep
    out = census_rla(data, AuditConfig(alpha=1.0), surveyed_mask=masks[0])
    out.census_seats["X"] = 0
    assert census_rla(data, AuditConfig(alpha=1.0), surveyed_mask=masks[0]).census_seats == seats
