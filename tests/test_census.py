import copy
import math
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from electaudit.apportionment import DIVISORS, AllocationTieError
from electaudit import census as census_mod
from electaudit.census import (
    CensusData,
    CensusModel,
    CensusPair,
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
    Household,
    agree_value,
    by_value,
    census_assorter_value,
    census_data,
    chi_square,
    comparison_assorter_value,
    generate_census_population_reference,
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


def _household_fixture(divisor_name="dhondt"):
    counts_x = [3, 2, 2, 1]
    counts_y = [1, 1, 2]
    hh = [Household(f"x{i}", "X", c, c) for i, c in enumerate(counts_x)]
    hh += [Household(f"y{i}", "Y", c, c) for i, c in enumerate(counts_y)]
    model = CensusModel(("X", "Y"), 3, {}, g_max=3, divisor_name=divisor_name)
    return model, hh


def test_pair_constants_positive():
    model, hh = _household_fixture()
    data = census_data(model, hh)
    seats = apportion(model, data.census_pops)
    for s1, s2 in (("X", "Y"), ("Y", "X")):
        pair = census_pair(data, seats, s1, s2)
        assert pair.c > 0
        assert pair.z > pair.m > 0


def test_census_assorter_boundary_values():
    model, hh = _household_fixture()
    data = census_data(model, hh)
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
    data = census_data(model3, hh)
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
    data = census_data(model, base)
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
    data = census_data(model, base)
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
    data = census_data(model, base)
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
    data = census_data(model, base)
    seats = apportion(model, data.census_pops)
    pair = census_pair(data, seats, "X", "Y")
    values = {
        comparison_assorter_value(pair, Household("h", st, g, g))
        for st in ("X", "Y")
        for g in range(model.g_max + 1)
    }
    assert values == {agree_value(pair)}


def test_comparison_mean_crosses_half_with_survey_mean():
    """mean A > 1/2 iff mean a_pes > 1/2, swept over survey sums."""
    model, base = _household_fixture()
    data = census_data(model, base)
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
    """Apportionments match iff every ordered-pair inequality holds, under
    either divisor rule.

    Both sides depend on the survey only through per-state sums, so the sweep
    over sums is exhaustive for 2 states, 7 households, counts up to 3.
    """
    for divisor_name in sorted(DIVISORS):
        model, base = _household_fixture(divisor_name)
        data = census_data(model, base)
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


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_every_pair_of_the_census_allocation_has_a_positive_margin(data):
    """On small random censuses under either divisor, apportion raises or
    every ordered pair it leaves a seat to defend has z > m > 0, so no pair of
    the audited allocation is refuted by the census alone."""
    k = data.draw(st.integers(2, 3))
    g_max = data.draw(st.integers(1, 4))
    model = CensusModel(tuple("XYZ"[:k]), data.draw(st.integers(1, 6)), {}, g_max,
                        data.draw(st.sampled_from(sorted(DIVISORS))))
    state_idx = data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=12))
    cen = data.draw(st.lists(st.integers(0, g_max), min_size=len(state_idx),
                             max_size=len(state_idx)))
    census = CensusData(model, np.array(state_idx), np.array(cen))
    try:
        seats = apportion(model, census.census_pops)
    except (AllocationTieError, ValueError):
        return
    for s1, s2 in permutations(model.states, 2):
        if seats[s1] > 0:
            pair = census_pair(census, seats, s1, s2)
            assert pair.z > pair.m > 0, (s1, s2, seats, census.census_pops)


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
    data = census_data(model, silent)
    out = census_rla(data, 0)
    assert out.risk_limit == 1.0
    assert all(r == 1.0 for r in out.pair_risks.values())
    assert out.households_examined == 0


def test_census_rla_agreement_improves_with_more_survey():
    model, base = _household_fixture()
    big = [
        Household(f"X{i}", "X", 2, 2) for i in range(300)
    ] + [Household(f"Y{i}", "Y", 1, 1) for i in range(150)]
    data = census_data(model, big)
    risks = []
    for k in (50, 150, 300):
        mask = np.zeros(data.n, dtype=bool)
        mask[make_rng((k, 7)).choice(data.n, size=k, replace=False)] = True
        out = census_rla(data, 1, surveyed_mask=mask)
        risks.append(out.risk_limit)
    assert risks[0] >= risks[1] >= risks[2]


def _agreement_risk_closed_form(pair: CensusPair, n: int, k: int) -> float:
    """Risk after k agreeing draws: 1 / max_j prod_{i<j} agree / mu_i.

    mu_i is the mean the remaining n - i households need under the null once
    i draws have each scored the agreement constant.
    """
    agree = float(agree_value(pair))
    T = T_max = 1.0
    mu = 0.5
    for i in range(1, k + 1):
        T *= agree / mu
        T_max = max(T_max, T)
        mu = (0.5 * n - i * agree) / (n - i)
    return min(1.0, 1.0 / T_max)


def test_census_rla_agreement_risk_matches_closed_form():
    """With a survey that agrees everywhere, every pair's risk is the closed
    form, under either divisor, so the reported risk depends on the inputs
    only through each pair's m/z, the household count and the sample size."""
    for divisor_name in sorted(DIVISORS):
        rng = make_rng(41)
        data = generate_census_population(
            {"X": 6100, "Y": 3900, "Z": 2300}, {1: 0.3, 2: 0.4, 3: 0.3}, 0.01, rng,
            representatives=7, divisor_name=divisor_name,
        )
        seats = apportion(data.model, data.census_pops)
        for frac in (0.05, 0.1):
            k = round(frac * data.n)
            mask = np.zeros(data.n, dtype=bool)
            mask[rng.choice(data.n, size=k, replace=False)] = True
            out = census_rla(data, 3, surveyed_mask=mask)
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
            out = census_rla(data, (trial, 1), surveyed_mask=mask)
            risks[f].append(out.risk_limit)
    import statistics

    medians = [statistics.median(risks[f]) for f in fractions]
    assert all(a >= b for a, b in zip(medians, medians[1:])), medians


def test_counts_above_gmax_rejected():
    model = CensusModel(states=("X",), representatives=1, constants={}, g_max=3)
    with pytest.raises(ValueError, match="outside"):
        census_data(model, [Household("h", "X", 4, None)])
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


def _household_csv(path, households) -> Path:
    rows = ["household_id,district,census_count,pes_count,surveyed,in_frame"]
    for h in households:
        pes = "" if h.pes_count is None else h.pes_count
        rows.append(f"{h.id},{h.state},{h.census_count},{pes},{int(h.surveyed)},{int(h.in_pes_frame)}")
    path.write_text("\n".join(rows) + "\n")
    return path


def test_census_data_from_arrays_matches_household_rows(tmp_path):
    model, hh = _household_fixture()
    hh = hh + [Household("z", "Y", 2, None, in_pes_frame=False)]
    rows = load_households_csv(_household_csv(tmp_path / "h.csv", hh), model)
    assert rows.state_idx.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
    assert rows.pes.tolist() == rows.cen.tolist() == [3, 2, 2, 1, 1, 1, 2, 2]
    assert rows.has_pes.tolist() == rows.in_frame.tolist() == [True] * 7 + [False]
    assert rows.census_pops == {"X": 8, "Y": 6}
    assert rows.state_totals(np.ones(rows.n, dtype=np.int64)) == {"X": 4, "Y": 4}
    with pytest.raises(ValueError, match="unknown state 'W'"):
        load_households_csv(_household_csv(tmp_path / "w.csv", [Household("w", "W", 1, 1)]), model)
    with pytest.raises(ValueError, match="duplicate household id 'x0'"):
        load_households_csv(_household_csv(tmp_path / "d.csv", hh + [hh[0]]), model)


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
    model = CensusModel(("X", "Y"), 2, constants, g_max=3)
    data = load_households_csv(h, model)
    assert data.has_pes.tolist() == [True, False] and data.pes.tolist() == [2, 3]
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "household_id,district,census_count,pes_count,surveyed\n"
        "a,X,2,,1\n"
    )
    with pytest.raises(ValueError, match="lacks pes_count"):
        load_households_csv(bad, model)


@pytest.mark.parametrize("probs", [
    [0.1, 0.2, 0.3, 0.4],
    [0.0, 0.5, 0.0, 0.5],  # zero-probability sizes are never drawn
    [0.0, 0.0, 1.0, 0.0],
    [1e-300, 1.0, 0.0, 2.0],
])
@pytest.mark.parametrize("n", [1, 2, 17, 1000])
def test_choice_is_its_inverse_cdf_of_uniforms(probs, n):
    """``Generator.choice(a, n, p=p)`` is ``a[cdf.searchsorted(random(n), "right")]``
    with ``cdf = p.cumsum(); cdf /= cdf[-1]`` and leaves the generator at the
    same position: the size draws of the household-by-household references,
    whose streams generation and injection took before they drew counts.
    The count draws, like those, never give a zero-probability size."""
    sizes = np.array([0, 1, 3, 7], dtype=np.int64)
    p = np.array(probs) / np.sum(probs)
    cdf = p.cumsum()
    cdf /= cdf[-1]
    for seed in range(40):
        chosen, mapped = make_rng(seed), make_rng(seed)
        want = chosen.choice(sizes, size=n, p=p)
        got = sizes[cdf.searchsorted(mapped.random(n), side="right")]
        assert got.tolist() == want.tolist()
        assert mapped.bit_generator.state == chosen.bit_generator.state
    dist = dict(zip(sizes.tolist(), probs))
    rng = make_rng(n)
    data = generate_census_population({"X": 4 * n}, dist, 0.0, rng, 1, g_max=7)
    redrawn = inject_survey_disagreement(data, 1.0, dist, rng)
    never = [size for size, prob in dist.items() if prob == 0]
    assert not np.isin(data.cen, never).any() and not np.isin(redrawn.pes, never).any()


CHI2_999 = {3: 16.27, 5: 20.52, 6: 22.46, 8: 26.12}  # upper 0.001 quantiles by df


def _binomial_cells(trials: int, p: float, top: int) -> dict[int, float]:
    """Binomial(trials, p) probabilities of 0, ..., top - 1, and of top or more."""
    cells = {k: math.comb(trials, k) * p**k * (1 - p) ** (trials - k) for k in range(top)}
    cells[top] = 1 - sum(cells.values())
    return cells


def _assert_fits(counts: dict, probs: dict, draws: int) -> None:
    """Pearson's statistic below its upper 0.001 quantile: a p floor of 0.001."""
    stat = chi_square(counts, probs, draws)
    assert stat < CHI2_999[len(probs) - 1], (stat, counts, probs)


def test_injection_matches_choice_reference():
    """Injection has the law of its household-by-household reference: over
    3,000 fixed-seed injections into 9 surveyed households (survey counts 0,
    so every hit shows), the hit count fits Binomial(9, 0.3), the hits fall
    uniformly on the surveyed households and the redrawn sizes fit the size
    distribution, for both, each at a p floor of 0.001.  Households with no
    survey count are never touched, and the census is shared, not redrawn."""
    model = CensusModel(states=("X", "Y", "Z"), representatives=3, constants={}, g_max=5)
    has_pes = np.arange(12) % 4 != 0  # the last household is surveyed
    cen = np.arange(12) % 5 + 1
    data = CensusData(model, np.arange(12) % 3, cen, np.where(has_pes, 0, cen), has_pes)
    dist, rate, reps = {1: 0.1, 2: 0.2, 3: 0.3, 5: 0.4}, 0.3, 3000
    for inject in (inject_survey_disagreement, inject_survey_disagreement_reference):
        hit_counts, positions, redrawn = [], [], []
        rng = make_rng(2026)
        for _ in range(reps):
            bumped = inject(data, rate, dist, rng)
            assert bumped.pes[~has_pes].tolist() == cen[~has_pes].tolist()
            assert bumped.census_pops == data.census_pops
            hit = np.flatnonzero(bumped.pes != data.pes)
            hit_counts.append(min(hit.size, 6))
            positions += hit.tolist()
            redrawn += bumped.pes[hit].tolist()
        _assert_fits(Counter(hit_counts), _binomial_cells(9, rate, 6), reps)
        _assert_fits(Counter(positions), {i: 1 / 9 for i in np.flatnonzero(has_pes)}, len(positions))
        _assert_fits(Counter(redrawn), dist, len(redrawn))
    assert data.pes.tolist() == np.where(has_pes, 0, cen).tolist()  # the input is left alone


@pytest.mark.parametrize("generate", [generate_census_population,
                                      generate_census_population_reference],
                         ids=["counts", "reference"])
def test_generation_matches_household_reference(generate):
    """Generation has the law of its household-by-household reference: over
    2,000 fixed-seed censuses of two districts (17 and 10 households), each
    district's recorded sizes fit size x response cells (a silent household
    records 0) and its count of silent households fits Binomial(count, 0.2),
    each at a p floor of 0.001.  Exactly, every district has
    round(population / mean size) households, and its census total plus its
    constant is its population."""
    pops, dist, nonresponse, reps = {"X": 40, "Y": 25}, {1: 0.2, 2: 0.5, 4: 0.3}, 0.2, 2000
    households = {"X": 17, "Y": 10}  # round(population / 2.4)
    cells = {0: nonresponse, **{size: (1 - nonresponse) * p for size, p in dist.items()}}
    recorded = {s: [] for s in pops}
    silent = {s: [] for s in pops}
    rng = make_rng(2027)
    for _ in range(reps):
        data = generate(pops, dist, nonresponse, rng, 3)
        for i, (state, pop) in enumerate(pops.items()):
            cen = data.cen[data.state_idx == i]
            assert cen.size == households[state]
            assert data.census_pops[state] + data.model.constants[state] == pop
            recorded[state] += cen.tolist()
            silent[state].append(min(int(np.count_nonzero(cen == 0)), 5))
    for state in pops:
        _assert_fits(Counter(recorded[state]), cells, len(recorded[state]))
        _assert_fits(Counter(silent[state]), _binomial_cells(households[state], nonresponse, 5), reps)


@pytest.mark.parametrize("rate", [0.0, 1.0])
@pytest.mark.parametrize("dist", [{0: 0.5, 3: 0.5}, {2: 1.0}], ids=["with-0", "one-size"])
def test_injection_at_rates_0_and_1(rate, dist):
    """Rate 0 leaves every survey count; rate 1 redraws every surveyed
    household's and no other, a size of 0 included."""
    model = CensusModel(states=("X", "Y"), representatives=2, constants={}, g_max=3)
    has_pes = np.arange(40) % 3 != 1  # the first and the last household are surveyed
    data = CensusData(model, np.arange(40) % 2, np.ones(40, int), has_pes=has_pes)
    bumped = inject_survey_disagreement(data, rate, dist, make_rng(5))
    kept = ~has_pes if rate else np.ones(40, bool)
    assert bumped.pes[kept].tolist() == data.pes[kept].tolist()
    if rate:
        assert set(bumped.pes[has_pes].tolist()) == set(dist)


def test_generation_with_a_size_of_0_and_no_nonresponse():
    """With no nonresponse the only zero counts are households of size 0;
    each district's household count and census total plus constant are exact."""
    pops, dist = {"X": 5000, "Y": 2100}, {0: 0.25, 1: 0.25, 3: 0.5}
    data = generate_census_population(pops, dist, 0.0, make_rng(8), 4)
    for i, (state, pop) in enumerate(pops.items()):
        cen = data.cen[data.state_idx == i]
        assert cen.size == round(pop / 1.75)
        assert data.census_pops[state] + data.model.constants[state] == pop
        assert set(cen.tolist()) == set(dist)
    zeros = np.count_nonzero(data.cen == 0)
    assert abs(zeros - 0.25 * data.n) <= 4 * math.sqrt(data.n * 0.25 * 0.75)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("dist", [{1: -0.5, 2: 1.0}, {1: float("nan")}, {1: 0.0, 2: 0.0},
                                  {1: float("inf")}, {1: 1e308, 2: 1e308}, {},
                                  {1: 1.0, 9: 1e-12}])
def test_injection_rejects_a_bad_size_distribution(dist):
    model = CensusModel(states=("X",), representatives=1, constants={}, g_max=3)
    data = CensusData(model, [0, 0], [1, 2])
    with pytest.raises(ValueError, match="household size distribution"):
        inject_survey_disagreement(data, 0.5, dist, make_rng(0))


def test_derived_survey_counts_are_checked_like_a_new_census():
    """New survey counts set directly keep the array check and its message,
    and injection rejects a size outside [0, g_max] before it draws; the
    census columns and totals are shared, not rebuilt."""
    model = CensusModel(states=("X",), representatives=1, constants={}, g_max=3)
    data = CensusData(model, [0, 0, 0], [1, 2, 3], has_pes=[True, False, True])
    with pytest.raises(ValueError, match=r"household 2 survey count 4 outside \[0, 3\]"):
        data.with_pes([1, 2, 4])
    with pytest.raises(ValueError, match=r"household 0 survey count -1 outside \[0, 3\]"):
        data.with_pes([-1, 2, 3])
    with pytest.raises(ValueError, match="one length"):
        data.with_pes([1, 2])
    with pytest.raises(ValueError, match=r"size distribution support must lie within \[0, 3\]"):
        inject_survey_disagreement(data, 1.0, {9: 1.0}, make_rng(0))
    copy = data.with_pes([0, -7, 0])  # an unsurveyed household's entry is not a count
    assert copy.census_pops is data.census_pops and copy.cen is data.cen
    assert copy.pes.tolist() == [0, -7, 0] and data.pes.tolist() == [1, 2, 3]


def _fresh(data):
    return CensusData(data.model, data.state_idx, data.cen, data.pes, data.has_pes, data.in_frame)


def test_pair_tests_are_built_once_and_reused_for_every_mask():
    """Every survey mask on one census gives the outcome of an audit of a
    fresh copy, while the pair constants are built only on the first call;
    another delta builds its own."""
    rng = make_rng(17)
    dist = {1: 0.3, 2: 0.4, 3: 0.3}
    data = generate_census_population(
        {"X": 6100, "Y": 3900, "Z": 2300}, dist, 0.01, rng, representatives=7
    )
    data = inject_survey_disagreement(data, 0.05, dist, rng)
    masks = []
    for frac in (0.02, 0.05, 0.1):
        mask = np.zeros(data.n, dtype=bool)
        mask[rng.choice(data.n, size=round(frac * data.n), replace=False)] = True
        masks.append(mask)
    for kwargs in ({}, {"delta": 1e-4}):
        with mock.patch.object(census_mod, "census_pair", wraps=census_mod.census_pair) as built:
            got = [census_rla(data, seed, surveyed_mask=m, **kwargs) for seed, m in enumerate(masks)]
        assert built.call_count == 6  # 3 states: one build per ordered pair, not per mask
        for seed, (m, out) in enumerate(zip(masks, got)):
            assert out == census_rla(_fresh(data), seed, surveyed_mask=m, **kwargs)
    assert len(data._pair_tests) == 2


def _wide(data):
    """``data`` with its columns in int64 and intp, the types before narrowing."""
    wide = copy.copy(data)
    wide._pair_tests = {}
    wide.state_idx, wide.cen = data.state_idx.astype(np.intp), data.cen.astype(np.int64)
    wide.pes = data.pes.astype(np.int64)
    return wide


@pytest.mark.parametrize("g_max, dtype", [(127, np.int8), (128, np.int16)])
def test_counts_take_the_narrowest_signed_type_holding_gmax(g_max, dtype):
    """A household counted exactly g_max keeps its count, and the audit reads
    the narrow columns as it reads the same census in int64 columns."""
    model = CensusModel(states=("X", "Y"), representatives=3, constants={}, g_max=g_max)
    rng = make_rng(g_max)
    n = 4000
    state_idx = (rng.random(n) < 0.4).astype(np.int64)
    cen = rng.integers(0, 4, n)
    cen[::97] = g_max
    pes = cen.copy()
    pes[5::61] = rng.integers(0, g_max + 1, len(pes[5::61]))
    pes[7] = g_max
    data = CensusData(model, state_idx, cen, pes)
    assert data.cen.dtype == data.pes.dtype == dtype and data.state_idx.dtype == np.uint8
    assert data.cen.tolist() == cen.tolist() and data.pes.tolist() == pes.tolist()
    assert data.census_pops == {"X": int(cen[state_idx == 0].sum()), "Y": int(cen[state_idx == 1].sum())}
    for seed in range(3):
        mask = np.zeros(n, dtype=bool)
        mask[rng.choice(n, size=400, replace=False)] = True
        got = census_rla(data, seed, surveyed_mask=mask)
        assert got == census_rla(_wide(data), seed, surveyed_mask=mask)
        assert 0 < got.risk_limit < 1


@pytest.mark.parametrize("k, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16)])
def test_state_index_takes_the_narrowest_unsigned_type(k, dtype):
    model = CensusModel(states=tuple(f"S{i}" for i in range(k)), representatives=1, constants={})
    data = CensusData(model, [k - 1, 0], [1, 2])
    assert data.state_idx.dtype == dtype and data.state_idx.tolist() == [k - 1, 0]
    assert data.census_pops[f"S{k - 1}"] == 1 + 2 * (k == 1)


@pytest.mark.parametrize("column", [0, 1, 2])
@pytest.mark.parametrize("bad", [[0.0, 1.0], [0.9, 1.7], ["0", "1"], [False, True]],
                         ids=["whole-float", "float", "str", "bool"])
def test_census_data_rejects_non_integer_columns(column, bad):
    """A float, string or bool state index, census or survey count is an
    error; a float was once truncated, 0.9 to state 0 and 1.7 to 1 resident."""
    model = CensusModel(states=("X", "Y"), representatives=1, constants={}, g_max=3)
    columns = [[0, 1], [1, 1], [1, 1]]
    columns[column] = bad
    with pytest.raises(ValueError, match="must hold integers"):
        CensusData(model, *columns)
    if column == 2:
        with pytest.raises(ValueError, match="must hold integers"):
            CensusData(model, *columns[:2]).with_pes(bad)


def test_with_pes_keeps_the_census_type():
    model = CensusModel(states=("X",), representatives=1, constants={}, g_max=300)
    data = CensusData(model, [0, 0, 0], np.array([1, 2, 300], dtype=np.uint64))
    assert data.cen.dtype == np.int16 and data.pes is data.cen
    for pes in ([3, 2, 1], np.array([3, 2, 1], dtype=np.int8), np.array([3, 2, 1], dtype=np.uint32)):
        new = data.with_pes(pes)
        assert new.pes.dtype == np.int16 and new.pes.tolist() == [3, 2, 1]


def test_values_past_the_column_type_are_rejected_not_wrapped():
    """Range checks see the values as given: no entry wraps in the cast, be it
    an unsurveyed survey entry or a count under a g_max past the int64 max."""
    model = CensusModel(states=("X",), representatives=1, constants={}, g_max=3)
    with pytest.raises(ValueError, match="outside int8"):
        CensusData(model, [0], [1], pes=[300], has_pes=[False])
    huge = CensusModel(states=("X",), representatives=1, constants={}, g_max=2**70)
    assert CensusData(huge, [0], [5]).cen.dtype == np.int64
    with pytest.raises(ValueError, match="outside int64"):
        CensusData(huge, [0], np.array([2**63], dtype=np.uint64))
    with pytest.raises(ValueError, match="overflow exact arithmetic"):
        CensusData(huge, [0, 0], [2**62, 2**62])


@pytest.mark.parametrize("g_max", [15, 2**31 - 1])
@pytest.mark.parametrize("n", [65535, 65536, 65537, 131073])
def test_state_totals_are_exact_across_slices(n, g_max):
    model = CensusModel(states=("X", "Y", "Z"), representatives=1, constants={}, g_max=g_max)
    rng = make_rng(n)
    state_idx = rng.integers(0, 3, n)
    cen = rng.integers(g_max - 15, g_max + 1, n)
    data = CensusData(model, state_idx, cen)
    want = {s: 0 for s in model.states}
    for i, c in zip(state_idx.tolist(), cen.tolist()):
        want[model.states[i]] += c
    assert data.census_pops == want
    assert data.state_totals(np.ones(n, dtype=np.int8)) == {
        s: state_idx.tolist().count(i) for i, s in enumerate(model.states)
    }


# counts in [0, g_max] = [0, 3] but for a rare -1 or 4; a rare unknown state W
_counts = st.integers(0, 24).map(lambda k: {23: -1, 24: 4}.get(k, k % 4))
households_lists = st.lists(st.builds(
    Household,
    st.integers(0, 40).map(str),
    st.sampled_from("XYXYXYXYW"),
    _counts,
    st.none() | _counts,
    st.booleans(),
), max_size=8)


@given(households_lists)
@settings(max_examples=200, deadline=None)
def test_load_households_csv_equals_the_household_reference(tmp_path_factory, households):
    """The household file read straight into columns gives the columns of the
    household-list reference, or the same error: a repeated id, a district
    outside the model, a count outside [0, g_max] or no household at all."""
    model = CensusModel(states=("X", "Y"), representatives=3, constants={}, g_max=3)
    path = _household_csv(tmp_path_factory.mktemp("h") / "h.csv", households)

    def outcome(load, *args):
        try:
            return by_value(load(*args))
        except ValueError as exc:
            return str(exc).removeprefix(f"{path}: ")

    assert outcome(load_households_csv, path, model) == outcome(census_data, model, households)
