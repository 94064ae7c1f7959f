"""Offline optimum: water-fill closed form against brute-force oracles."""

import math

import numpy as np
import pytest

from peakmin.core import DemandProfile, DischargeSchedule, Instance
from peakmin.errors import BudgetExceedsTotalDemand, InfeasibleSchedule, InvalidCmdWeights
from peakmin.offline import (
    CmdWeights,
    evaluate_cmd_cost,
    offline_peak,
    offline_peak_values,
    solve_offline_pmd,
    water_fill_threshold,
)

from conftest import DHAT, random_profiles
from oracles import offline_peak_grid, waterfill_oracle


def test_water_fill_golden_values():
    assert water_fill_threshold([2.0, 1.0], 1.0) == pytest.approx(1.0)
    assert water_fill_threshold([3.0, 1.0, 1.0], 1.5) == pytest.approx(1.5)
    # budget merges all slots: (sum - budget) / T
    assert water_fill_threshold([2.0, 2.0, 2.0], 3.0) == pytest.approx(1.0)


def test_water_fill_zero_budget_is_max():
    assert water_fill_threshold([1.0, 4.0, 2.0], 0.0) == 4.0


def test_zero_budget_level_is_the_largest_demand_exactly():
    """Six equal demands with no storage: the mean of the top six, S_6 / 6,
    rounds an ulp above the demand, so the level is clamped at the largest
    demand and equals the peak offline_peak reads from the schedule."""
    d_ub = 1.5312875193116091
    inst = Instance(0.0, None, 6, 1.0277499332135034, d_ub)
    assert offline_peak_values(inst, [d_ub] * 6) == d_ub
    assert offline_peak(inst, DemandProfile(inst, [d_ub] * 6)) == d_ub
    assert offline_peak_values(inst, np.full((3, 6), d_ub)).tolist() == [d_ub] * 3


def test_water_fill_rejects_budget_above_total():
    with pytest.raises(BudgetExceedsTotalDemand):
        water_fill_threshold([1.0, 1.0], 2.5)
    with pytest.raises(BudgetExceedsTotalDemand):
        water_fill_threshold([1.0, 1.0], -0.1)


def test_water_fill_rejects_nan_budget():
    with pytest.raises(BudgetExceedsTotalDemand):
        water_fill_threshold([1.0, 2.0], float("nan"))


@pytest.mark.parametrize("demands", [[], np.zeros((3, 0))], ids=["empty", "no-columns"])
def test_water_fill_rejects_no_demand(demands):
    """An empty vector or an (N, 0) matrix raises ValueError, as the other
    input errors do; it used to raise IndexError."""
    with pytest.raises(ValueError, match="nonempty"):
        water_fill_threshold(demands, 0.5)


@pytest.mark.parametrize(
    "demands",
    [[1.0, float("nan")], [float("inf"), 1.0], [[1.0, 2.0], [1.0, float("-inf")]]],
    ids=["nan", "inf", "matrix-row"],
)
def test_water_fill_rejects_non_finite_demands(demands):
    """[1, nan] used to give the level nan; a non-finite demand in any row
    now raises."""
    with pytest.raises(ValueError, match="finite"):
        water_fill_threshold(demands, 0.5)


def test_water_fill_matches_bisection_oracle():
    rng = np.random.default_rng(7)
    for _ in range(300):
        T = int(rng.integers(1, 9))
        d = rng.uniform(0.5, 5.0, T)
        budget = rng.uniform(0.0, 0.9 * d.sum())
        assert water_fill_threshold(d, budget) == pytest.approx(
            waterfill_oracle(d, budget), abs=1e-7
        )


def test_water_fill_rows_matches_scalar():
    """An (N, T) matrix gives each row's level, bit for bit, against one
    budget for all rows or one budget per row."""
    rng = np.random.default_rng(3)
    rows = rng.uniform(1.0, 4.0, (50, 6))
    got = water_fill_threshold(rows, 2.0)
    want = [water_fill_threshold(r, 2.0) for r in rows]
    assert got.shape == (50,)
    assert got.tolist() == want
    with pytest.raises(BudgetExceedsTotalDemand):
        water_fill_threshold(np.array([[3.0, 3.0], [1.0, 0.5]]), 2.0)
    # one budget per row, zero and whole-row totals included
    budgets = rng.uniform(0.0, 6.0, 50)
    budgets[:2] = 0.0, rows[1].sum()
    got = water_fill_threshold(rows, budgets)
    assert got.tolist() == [water_fill_threshold(r, b) for r, b in zip(rows, budgets)]
    # a NaN or negative entry, or a row budget above that row's total, raises
    # as the one-row form does, even when every other row is fine
    pair = np.array([[3.0, 3.0], [1.0, 0.5]])
    for budgets, row in (([1.0, math.nan], 1), ([-0.1, 1.0], 0), ([2.0, 2.0], 1)):
        with pytest.raises(BudgetExceedsTotalDemand):
            water_fill_threshold(pair[row], budgets[row])
        with pytest.raises(BudgetExceedsTotalDemand):
            water_fill_threshold(pair, np.array(budgets))
    assert water_fill_threshold(pair, np.array([6.0, 1.5])).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("length", [1, 5, 9, 20])
def test_water_fill_matrix_matches_vector_calls_bit_for_bit(length):
    """An (N, L) matrix's levels, which the level step reads from prefix
    sums laid out one column per row, equal N vector calls bit for bit,
    against one budget and against one budget per row (zero and whole-row
    budgets, and rows of equal demands, included)."""
    rng = np.random.default_rng(length)
    rows = rng.uniform(1.0, 4.0, (40, length))
    rows[:3] = rows[:3, :1]  # equal demands, where a zero budget's level is clamped
    budget = 0.5 * rows.sum(axis=1).min()
    budgets = rng.uniform(0.0, 1.0, 40) * rows.sum(axis=1)
    budgets[[0, 3]] = 0.0
    budgets[[1, 4]] = rows[[1, 4]].sum(axis=1)
    for each in (budget, 0.0):
        assert water_fill_threshold(rows, each).tolist() == [
            water_fill_threshold(row, each) for row in rows]
    assert water_fill_threshold(rows, budgets).tolist() == [
        water_fill_threshold(row, b) for row, b in zip(rows, budgets)]


def test_offline_peak_values_rows_match_scalar():
    """offline_peak_values row by row equals the per-profile offline peak."""
    rng = np.random.default_rng(5)
    for rate in (None, 0.7):
        inst = Instance(2.0, rate, 5, 1.0, 3.0)
        rows = rng.uniform(1.0, 3.0, (40, 5))
        got = offline_peak_values(inst, rows)
        want = [offline_peak_values(inst, r) for r in rows]
        assert got.tolist() == want
        assert np.allclose(want, [offline_peak(inst, DemandProfile(inst, r)) for r in rows],
                           rtol=0.0, atol=1e-12)


def test_offline_dhat_golden():
    inst = Instance(630.0, None, 10, 300.0, 600.0)
    sol = solve_offline_pmd(inst, DemandProfile(inst, DHAT))
    assert sol.peak == pytest.approx(474.0, abs=1e-9)
    assert sol.threshold_v == pytest.approx(474.0, abs=1e-9)
    assert sol.schedule.values.sum() == pytest.approx(630.0, abs=1e-9)


def test_offline_matches_grid_search_small():
    # exhaustive schedule search at 0.02 resolution on tiny instances
    cases = [
        (Instance(1.0, None, 2, 1.0, 2.0), [2.0, 1.4]),
        (Instance(1.0, None, 2, 1.0, 2.0), [1.2, 2.0]),
        (Instance(1.2, 0.5, 3, 1.0, 2.0), [2.0, 1.0, 1.8]),
        (Instance(0.8, 0.3, 3, 1.0, 2.0), [1.7, 1.9, 1.1]),
    ]
    for inst, d in cases:
        sol = solve_offline_pmd(inst, DemandProfile(inst, d))
        grid = offline_peak_grid(d, inst.capacity_c, inst.rate_limit, 0.02)
        assert sol.peak <= grid + 1e-9, (d, sol.peak, grid)


def test_rate_limit_correction_applies():
    # one tall slot, rate limit binds there: peak = d_max - rate_limit
    inst = Instance(1.0, 0.4, 3, 1.0, 3.0)
    sol = solve_offline_pmd(inst, DemandProfile(inst, [3.0, 1.0, 1.0]))
    assert sol.peak == pytest.approx(2.6)
    assert sol.schedule.values[0] == pytest.approx(0.4)


def test_offline_optimality_against_random_feasible_schedules():
    inst = Instance(2.0, None, 4, 1.0, 3.0)
    rng = np.random.default_rng(23)
    for row in random_profiles(inst, 100, seed=5):
        demand = DemandProfile(inst, row)
        opt = solve_offline_pmd(inst, demand).peak
        for _ in range(20):
            frac = rng.dirichlet(np.ones(4)) * inst.capacity_c
            sched = np.minimum(frac, row)
            peak = (row - sched).max()
            assert opt <= peak + 1e-9


def test_offline_scale_equivariance():
    inst = Instance(1.5, None, 3, 1.0, 3.0)
    big = Instance(150.0, None, 3, 100.0, 300.0)
    for row in random_profiles(inst, 100, seed=17):
        p1 = offline_peak(inst, DemandProfile(inst, row))
        p2 = offline_peak(big, DemandProfile(big, row * 100.0))
        assert p2 == pytest.approx(100.0 * p1, rel=1e-12)


def test_offline_peak_monotone_in_budget():
    inst_lo = Instance(0.5, None, 3, 1.0, 3.0)
    inst_hi = Instance(1.5, None, 3, 1.0, 3.0)
    for row in random_profiles(inst_lo, 100, seed=29):
        p_lo = offline_peak(inst_lo, DemandProfile(inst_lo, row))
        p_hi = offline_peak(inst_hi, DemandProfile(inst_hi, row))
        assert p_hi <= p_lo + 1e-12


def test_cmd_weights_validation():
    CmdWeights((0.1, 0.2, 0.1), peak_weight=0.3)
    with pytest.raises(InvalidCmdWeights):
        CmdWeights((0.1, 0.2, 0.1), peak_weight=0.29)
    with pytest.raises(InvalidCmdWeights):
        CmdWeights((), peak_weight=1.0)
    # NaN passed and gave a NaN cost, inf an infinite one, a bool passed as
    # 1.0 and a str raised TypeError
    for energy, peak in [((1.0, 2.0), math.nan), ((1.0, math.nan), 5.0), ((1.0, 2.0), math.inf),
                         ((True, 2.0), 5.0), ((1.0, 2.0), "5")]:
        with pytest.raises(InvalidCmdWeights, match="must be finite numbers"):
            CmdWeights(energy, peak)


def test_cmd_shares_pmd_offline_optimum():
    """With valid weights the water-fill schedule minimizes the weighted cost
    among random feasible schedules."""
    inst = Instance(1.5, None, 3, 1.0, 3.0)
    weights = CmdWeights((0.10, 0.14, 0.12), peak_weight=3 * 0.04 + 0.5)
    rng = np.random.default_rng(41)
    for row in random_profiles(inst, 60, seed=13):
        demand = DemandProfile(inst, row)
        sol = solve_offline_pmd(inst, demand)
        base = evaluate_cmd_cost(weights, demand, sol.schedule)
        for _ in range(25):
            frac = rng.dirichlet(np.ones(3)) * inst.capacity_c
            sched = DischargeSchedule(inst, demand, np.minimum(frac, row))
            assert base <= evaluate_cmd_cost(weights, demand, sched) + 1e-9


def test_cmd_cost_formula():
    inst = Instance(1.0, None, 2, 1.0, 3.0)
    demand = DemandProfile(inst, [3.0, 2.0])
    sched = DischargeSchedule(inst, demand, [1.0, 0.0])
    weights = CmdWeights((0.5, 0.5), peak_weight=1.0)
    # purchased = [2, 2]; cost = 0.5*2 + 0.5*2 + 1.0*2 = 4
    assert evaluate_cmd_cost(weights, demand, sched) == pytest.approx(4.0)
    with pytest.raises(InfeasibleSchedule, match="weights length 3 != profile length 2"):
        evaluate_cmd_cost(CmdWeights((0.5, 0.5, 0.5), peak_weight=1.0), demand, sched)
