"""Comparison policies: threshold, equal-split rules, and receding horizon."""

import math

import numpy as np
import pytest

from peakmin.baselines import (
    FUTURE_LOWER,
    FUTURE_MIDPOINT,
    FUTURE_UPPER,
    RhcConfig,
    baseline_peaks,
    equal_discharge_actions,
    equal_ratio_actions,
    rhc_actions,
    run_equal_discharge,
    run_equal_ratio,
    run_rhc,
    run_threshold,
    threshold_actions,
)
from peakmin.core import DemandProfile, DischargeSchedule, Instance
from peakmin.errors import InfeasibleSchedule
from peakmin.harness import POLICY_RUNNERS, RunSettings
from peakmin.offline import offline_peaks, solve_offline_pmd
from peakmin.online import PolicyRun

from conftest import random_profiles
from oracles import (
    equal_discharge_actions_loop,
    equal_ratio_actions_loop,
    rhc_actions_loop,
    threshold_actions_loop,
)

# (capacity, T, d_lb, d_ub) with and without a rate limit; T = 24 takes
# windows longer than eight slots, where numpy sums a row pairwise
_KERNEL_INSTANCES = [
    Instance(capacity_c=cap, rate_limit=rate, horizon_T=T, demand_lb=lb, demand_ub=ub)
    for cap, T, lb, ub in ((1.0, 2, 1.0, 2.0), (4.5, 6, 1.0, 2.5), (600.0, 20, 100.0, 400.0),
                           (900.0, 24, 50.0, 300.0))
    for rate in (None, 0.35 * ub)
]


@pytest.fixture(scope="module")
def two_one_instance():
    return Instance(capacity_c=1.0, rate_limit=None, horizon_T=2, demand_lb=1.0, demand_ub=2.0)


@pytest.fixture(scope="module")
def two_one_profile(two_one_instance):
    return DemandProfile(two_one_instance, [2.0, 1.0])


def test_threshold_above_ceiling_discharges_nothing(two_one_instance, two_one_profile):
    run = run_threshold(two_one_instance, two_one_profile, threshold=2.0)
    assert np.array_equal(run.schedule.values, np.zeros(2))
    assert run.final_peak == pytest.approx(2.0)
    assert run.inventory_spent == 0.0
    assert run.ratio_trajectory.size == 0


def test_threshold_zero_flattens_demand_on_boundary_capacity():
    """With c equal to the whole consumption the zero threshold erases it."""
    instance = Instance(capacity_c=2.0, rate_limit=None, horizon_T=2, demand_lb=1.0, demand_ub=2.0)
    run = run_threshold(instance, DemandProfile(instance, [1.0, 1.0]), threshold=0.0)
    assert np.array_equal(run.schedule.values, np.array([1.0, 1.0]))
    assert run.final_peak == pytest.approx(0.0)
    assert run.inventory_spent == pytest.approx(2.0)


def test_threshold_hand_trace(two_one_instance, two_one_profile):
    run = run_threshold(two_one_instance, two_one_profile, threshold=1.5)
    assert run.schedule.values == pytest.approx([0.5, 0.0])
    assert run.final_peak == pytest.approx(1.5)


def test_threshold_spends_greedily_until_empty(two_one_instance):
    """A low threshold drains the inventory on the first slots it can."""
    run = run_threshold(two_one_instance, DemandProfile(two_one_instance, [2.0, 2.0]), 0.5)
    assert run.schedule.values == pytest.approx([1.0, 0.0])
    assert run.inventory_spent == pytest.approx(1.0)


def test_threshold_rejects_negative(two_one_instance, two_one_profile):
    with pytest.raises(ValueError):
        run_threshold(two_one_instance, two_one_profile, threshold=-0.1)


def test_threshold_rejects_nan(two_one_instance, two_one_profile):
    with pytest.raises(ValueError, match="nan"):
        run_threshold(two_one_instance, two_one_profile, threshold=float("nan"))


def test_equal_discharge_uniform_demand():
    instance = Instance(capacity_c=8.0, rate_limit=None, horizon_T=4, demand_lb=2.0, demand_ub=4.0)
    run = run_equal_discharge(instance, DemandProfile(instance, [3.0, 3.0, 3.0, 3.0]))
    assert run.schedule.values == pytest.approx([2.0, 2.0, 2.0, 2.0])
    assert run.final_peak == pytest.approx(1.0)


def test_equal_discharge_hand_trace(two_one_instance, two_one_profile):
    run = run_equal_discharge(two_one_instance, two_one_profile)
    assert run.schedule.values == pytest.approx([0.5, 0.5])
    assert run.final_peak == pytest.approx(1.5)


def test_equal_discharge_quota_capped_by_rate_limit():
    """A rate limit below c/T leaves inventory stranded: the per-slot quota is
    not carried over to later slots."""
    instance = Instance(capacity_c=2.0, rate_limit=0.5, horizon_T=2, demand_lb=1.0, demand_ub=2.0)
    run = run_equal_discharge(instance, DemandProfile(instance, [2.0, 2.0]))
    assert run.schedule.values == pytest.approx([0.5, 0.5])
    assert run.inventory_spent == pytest.approx(1.0)
    assert run.inventory_spent < instance.capacity_c


def test_equal_ratio_zero_rate_is_idle(two_one_instance, two_one_profile):
    run = run_equal_ratio(two_one_instance, two_one_profile, capacity_rate=0.0)
    assert np.array_equal(run.schedule.values, np.zeros(2))


def test_equal_ratio_full_rate_tracks_demand_until_empty():
    instance = Instance(capacity_c=2.0, rate_limit=None, horizon_T=2, demand_lb=1.0, demand_ub=3.0)
    run = run_equal_ratio(instance, DemandProfile(instance, [1.5, 3.0]), capacity_rate=1.0)
    assert run.schedule.values == pytest.approx([1.5, 0.5])
    assert run.inventory_spent == pytest.approx(instance.capacity_c)


def test_equal_ratio_hand_trace(two_one_instance, two_one_profile):
    run = run_equal_ratio(two_one_instance, two_one_profile, capacity_rate=0.25)
    assert run.schedule.values == pytest.approx([0.5, 0.25])


def test_equal_ratio_rejects_rate_outside_unit_interval(two_one_instance, two_one_profile):
    for rate in (-0.01, 1.01):
        with pytest.raises(ValueError):
            run_equal_ratio(two_one_instance, two_one_profile, capacity_rate=rate)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_rhc_config_rejects_non_finite_window(bad):
    """A NaN window used to pass (nan < 1 is False) and fail later inside
    numpy; it now fails at construction, as infinity does."""
    with pytest.raises(ValueError, match="window"):
        RhcConfig(window=bad)


def test_rhc_config_validation():
    with pytest.raises(ValueError):
        RhcConfig(window=0)
    with pytest.raises(ValueError):
        RhcConfig(future_view="average")
    with pytest.raises(ValueError):
        RhcConfig(window=5).resolve_window(4)


def test_rhc_config_default_window_is_quarter_horizon():
    for horizon in (2, 4, 8, 10, 12):
        assert RhcConfig().resolve_window(horizon) == math.ceil(horizon / 4)


def test_rhc_config_future_values(two_one_instance):
    assert RhcConfig(future_view=FUTURE_UPPER).future_value(two_one_instance) == 2.0
    assert RhcConfig(future_view=FUTURE_LOWER).future_value(two_one_instance) == 1.0
    assert RhcConfig(future_view=FUTURE_MIDPOINT).future_value(two_one_instance) == 1.5


def test_rhc_clairvoyant_full_window_is_offline(tiny_instance):
    """Given the true demands and the whole horizon, committing first actions
    one slot at a time re-derives the offline schedule exactly when discharge
    is unconstrained. A binding rate limit can strand budget that the
    re-solves later spend on slots the offline solution left alone; the
    schedules then differ but both attain the offline peak."""
    exact = [
        tiny_instance,
        Instance(capacity_c=2.5, rate_limit=None, horizon_T=4, demand_lb=1.0, demand_ub=3.0),
        Instance(capacity_c=4.0, rate_limit=None, horizon_T=6, demand_lb=0.8, demand_ub=2.0),
    ]
    for k, instance in enumerate(exact):
        config = RhcConfig(window=instance.horizon_T)
        for row in random_profiles(instance, 60, seed=30 + k):
            demand = DemandProfile(instance, row)
            run = run_rhc(instance, demand, config, clairvoyant=True)
            offline = solve_offline_pmd(instance, demand)
            assert np.allclose(run.schedule.values, offline.schedule.values, atol=1e-9)
            assert run.final_peak == pytest.approx(offline.peak, abs=1e-9)
    limited = Instance(capacity_c=1.8, rate_limit=0.7, horizon_T=5, demand_lb=0.5, demand_ub=2.0)
    config = RhcConfig(window=limited.horizon_T)
    for row in random_profiles(limited, 60, seed=33):
        demand = DemandProfile(limited, row)
        run = run_rhc(limited, demand, config, clairvoyant=True)
        assert run.final_peak == pytest.approx(solve_offline_pmd(limited, demand).peak, abs=1e-9)


def test_rhc_single_slot_window_discharges_maximally(two_one_instance):
    """A one-slot window sees no future, so the offline step inside it spends
    as much as the slot and the inventory allow."""
    run = run_rhc(
        two_one_instance,
        DemandProfile(two_one_instance, [2.0, 2.0]),
        RhcConfig(window=1, future_view=FUTURE_UPPER),
    )
    assert run.schedule.values == pytest.approx([1.0, 0.0])


def test_rhc_myopic_overspend_hand_trace(two_one_instance):
    """[1, 2] with window 1: the whole unit is dumped on the cheap slot and
    the tall slot goes unserved."""
    run = run_rhc(two_one_instance, DemandProfile(two_one_instance, [1.0, 2.0]), RhcConfig(window=1))
    assert run.schedule.values == pytest.approx([1.0, 0.0])
    assert run.final_peak == pytest.approx(2.0)


def test_rhc_lower_view_spends_earlier_than_upper(two_one_instance):
    """Assuming cheap futures makes the controller discharge sooner; assuming
    expensive futures makes it hold back inventory."""
    demand = DemandProfile(two_one_instance, [2.0, 2.0])
    lower = run_rhc(two_one_instance, demand, RhcConfig(window=2, future_view=FUTURE_LOWER))
    upper = run_rhc(two_one_instance, demand, RhcConfig(window=2, future_view=FUTURE_UPPER))
    assert lower.schedule.values[0] > upper.schedule.values[0]


def test_all_baselines_emit_feasible_schedules():
    """DischargeSchedule construction inside each runner enforces feasibility,
    so surviving a fuzz batch is the property."""
    instances = [
        Instance(capacity_c=1.0, rate_limit=None, horizon_T=2, demand_lb=1.0, demand_ub=2.0),
        Instance(capacity_c=2.0, rate_limit=0.9, horizon_T=4, demand_lb=0.8, demand_ub=3.0),
        Instance(capacity_c=4.5, rate_limit=None, horizon_T=6, demand_lb=1.0, demand_ub=2.5),
    ]
    for k, instance in enumerate(instances):
        mid = 0.5 * (instance.demand_lb + instance.demand_ub)
        for row in random_profiles(instance, 80, seed=60 + k):
            demand = DemandProfile(instance, row)
            runs = [
                run_threshold(instance, demand, mid),
                run_equal_discharge(instance, demand),
                run_equal_ratio(instance, demand, 0.3),
                run_rhc(instance, demand, RhcConfig(window=2, future_view=FUTURE_UPPER)),
                run_rhc(instance, demand, RhcConfig(window=2, future_view=FUTURE_LOWER)),
                run_rhc(instance, demand, RhcConfig()),
            ]
            for run in runs:
                assert run.inventory_spent <= instance.capacity_c + 1e-9
                assert run.ratio_trajectory.size == 0
                assert run.final_peak == pytest.approx(
                    float((demand.values - run.schedule.values).max())
                )


@pytest.mark.parametrize("instance", _KERNEL_INSTANCES,
                         ids=lambda i: f"T{i.horizon_T}-rate{i.rate_limit}")
def test_kernels_match_per_day_loops_bit_for_bit(instance):
    """Each day-matrix kernel gives every day exactly the actions of the
    per-day slot loop it replaced, for every future view, window length and
    the clairvoyant mode, and with the days reversed as a future matrix.
    Window 9 lies between 8 and T - 1 on the T = 20 and T = 24 instances:
    numpy sums its 9-slot windows' caps pairwise along each row."""
    values = random_profiles(instance, 40, seed=instance.horizon_T)
    mid = 0.5 * (instance.demand_lb + instance.demand_ub)
    T = instance.horizon_T
    cases = [
        (threshold_actions(instance, values, mid),
         lambda row: threshold_actions_loop(instance, row, mid)),
        (threshold_actions(instance, values, 0.0),
         lambda row: threshold_actions_loop(instance, row, 0.0)),
        (equal_discharge_actions(instance, values),
         lambda row: equal_discharge_actions_loop(instance, row)),
        (equal_ratio_actions(instance, values, 0.3),
         lambda row: equal_ratio_actions_loop(instance, row, 0.3)),
    ]
    for view in (FUTURE_UPPER, FUTURE_LOWER, FUTURE_MIDPOINT):
        for window in dict.fromkeys((None, 1, 2, *([9] if T > 9 else []), T)):
            config = RhcConfig(window, view)
            cases += [
                (rhc_actions(instance, values, window, config.future_value(instance)),
                 lambda row, c=config: rhc_actions_loop(instance, row, c)),
                (rhc_actions(instance, values, window, values),
                 lambda row, c=config: rhc_actions_loop(instance, row, c, clairvoyant=True)),
                (rhc_actions(instance, values, window, values[:, ::-1]),
                 lambda row, c=config: rhc_actions_loop(instance, row, c, future=row[::-1])),
            ]
    for got, loop in cases:
        assert got.shape == values.shape
        for row, actions in zip(values, got):
            assert actions.tolist() == loop(row)



@pytest.mark.parametrize("instance", _KERNEL_INSTANCES,
                         ids=lambda i: f"T{i.horizon_T}-rate{i.rate_limit}")
def test_per_row_capacity_and_argument_match_one_call_per_instance(instance):
    """A kernel given one capacity and one argument per row gives every block
    of rows exactly the actions of a call on that block's own instance and
    argument, and offline_peaks likewise (rhc also with the days themselves
    as its future); an over-capacity row is named with its own capacity."""
    values = random_profiles(instance, 9, seed=instance.horizon_T + 5)
    shares = (1.0, 0.5, 0.2)
    blocks = [(Instance(instance.capacity_c * share, instance.rate_limit, instance.horizon_T,
                        instance.demand_lb, instance.demand_ub), share) for share in shares]
    rows = np.tile(values, (len(blocks), 1))
    capacity = np.repeat([block.capacity_c for block, _ in blocks], len(values))
    argument = np.repeat([instance.demand_lb + share * (instance.demand_ub - instance.demand_lb)
                          for share in shares], len(values))
    window = 2 if instance.horizon_T > 2 else None
    stacked = [
        (threshold_actions(instance, rows, argument, capacity),
         lambda block, arg: threshold_actions(block, values, arg)),
        (equal_discharge_actions(instance, rows, capacity),
         lambda block, arg: equal_discharge_actions(block, values)),
        (equal_ratio_actions(instance, rows, argument / instance.demand_ub, capacity),
         lambda block, arg: equal_ratio_actions(block, values, arg / instance.demand_ub)),
        (rhc_actions(instance, rows, window, argument, capacity=capacity),
         lambda block, arg: rhc_actions(block, values, window, arg)),
        (rhc_actions(instance, rows, window, rows, capacity=capacity),
         lambda block, arg: rhc_actions(block, values, window, values)),
        (offline_peaks(instance, rows, capacity),
         lambda block, arg: offline_peaks(block, values)),
    ]
    for got, alone in stacked:
        for k, (block, _share) in enumerate(blocks):
            arg = float(argument[k * len(values)])
            part = got[k * len(values):(k + 1) * len(values)]
            assert part.tolist() == alone(block, arg).tolist()
    actions = equal_ratio_actions(instance, rows, 0.1, capacity)
    actions[-1] = _break_row(blocks[-1][0], values, actions[-len(values):], -1,
                             "over-capacity")[-1]
    with pytest.raises(InfeasibleSchedule, match=f"exceeds capacity {blocks[-1][0].capacity_c}$"):
        baseline_peaks(lambda instance, values, capacity: actions, instance, rows,
                       capacity=capacity)


def _break_row(instance, values, actions, row, kind):
    """actions with row `row` made infeasible in one way, the others kept."""
    caps = values[row] if instance.rate_limit is None else np.minimum(values[row],
                                                                      instance.rate_limit)
    actions = actions.copy()
    if kind == "nan":
        actions[row, -1] = np.nan
    elif kind == "negative":
        actions[row, 0] = -1e-6
    elif kind == "above-cap":
        actions[row, -1] = caps[-1] + 1e-6
    else:  # over capacity, each slot within its cap
        actions[row] = caps * ((instance.capacity_c + 1e-6) / caps.sum())
    return actions


@pytest.mark.parametrize("kind", ["nan", "negative", "above-cap", "over-capacity"])
@pytest.mark.parametrize("instance", _KERNEL_INSTANCES,
                         ids=lambda i: f"T{i.horizon_T}-rate{i.rate_limit}")
def test_cell_check_raises_what_the_day_check_raises(instance, kind):
    """One infeasible row among many feasible ones: the cell's one check of
    the action matrix raises the InfeasibleSchedule, message and all, that
    DischargeSchedule raises on that row alone."""
    values = random_profiles(instance, 12, seed=instance.horizon_T + 1)
    feasible = equal_ratio_actions(instance, values, 0.1)
    for row in (0, 5, 11):
        actions = _break_row(instance, values, feasible, row, kind)
        with pytest.raises(InfeasibleSchedule) as cell:
            baseline_peaks(lambda instance, values: actions, instance, values)
        with pytest.raises(InfeasibleSchedule) as day:
            DischargeSchedule(instance, DemandProfile(instance, values[row]), actions[row])
        assert str(cell.value) == str(day.value)


@pytest.mark.parametrize("instance", _KERNEL_INSTANCES,
                         ids=lambda i: f"T{i.horizon_T}-rate{i.rate_limit}")
def test_cell_peaks_match_per_day_runs_bit_for_bit(instance):
    """Each baseline kernel's cell gives every day exactly the final peak of
    the day's PolicyRun on the per-day slot loop's actions, the policy's
    POLICY_RUNNERS run of each day is that PolicyRun, and the matrix offline
    peaks are solve_offline_pmd's."""
    profiles = [DemandProfile(instance, row)
                for row in random_profiles(instance, 30, seed=7 * instance.horizon_T)]
    values = np.array([p.values for p in profiles])
    mid = 0.5 * (instance.demand_lb + instance.demand_ub)
    settings = RunSettings(threshold=mid, ratio=0.3)
    window = RhcConfig().resolve_window(instance.horizon_T)
    # policy -> (the kernel and its arguments, the per-day slot loop)
    cases = {
        "thr": ((threshold_actions, mid), lambda v: threshold_actions_loop(instance, v, mid)),
        "eql-dis": ((equal_discharge_actions,),
                    lambda v: equal_discharge_actions_loop(instance, v)),
        "eql-per": ((equal_ratio_actions, 0.3),
                    lambda v: equal_ratio_actions_loop(instance, v, 0.3)),
        **{f"rhc-{name}": ((rhc_actions, window, RhcConfig(window, view).future_value(instance)),
                           lambda v, view=view: rhc_actions_loop(instance, v,
                                                                 RhcConfig(window, view)))
           for name, view in (("upper", FUTURE_UPPER), ("lower", FUTURE_LOWER),
                              ("mid", FUTURE_MIDPOINT))},
    }
    for algo, ((kernel, *args), loop) in cases.items():
        days = [PolicyRun.from_actions(instance, p, loop(p.values)) for p in profiles]
        peaks = baseline_peaks(kernel, instance, values, *args)
        assert peaks.tolist() == [day.final_peak for day in days], algo
        for profile, day in zip(profiles, days):
            run = POLICY_RUNNERS[algo](instance, profile, settings)
            assert run.schedule.values.tolist() == day.schedule.values.tolist(), algo
            assert run.final_peak == day.final_peak, algo
    assert offline_peaks(instance, values).tolist() == [
        solve_offline_pmd(instance, p).peak for p in profiles]
