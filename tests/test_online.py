"""Online policies: fixed ratio pursuit, anytime certification, depleting
variant, and monthly threading."""

import contextlib
import importlib.util
import math
import sys
from collections import Counter
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

import peakmin.cr as cr
import peakmin.harness as harness
import peakmin.lp as lp_mod
import peakmin.online as online
from peakmin.core import DemandProfile, Instance, OnlineState
from peakmin.cr import inventory_unbounded, optimal_cr
from peakmin.errors import (
    DegenerateOfflinePeak,
    DemandOutOfBounds,
    NegativeSlack,
    NonPositiveBound,
    NumericalFailure,
)
from peakmin.harness import (
    SlottingConfig,
    ingest_trace,
    parse_transactions,
    synthetic_volatile_profiles,
)
from peakmin.lp import OPTIMAL, LinearProgram
from peakmin.offline import offline_peak, offline_peak_values, solve_offline_pmd
from peakmin.online import (
    MODE_ANYTIME,
    MODE_ANYTIME_DEPLETING,
    PolicyOptions,
    anytime_ratio,
    pcr_step,
    run_anytime,
    run_pcr_pmd,
)

from conftest import DHAT, random_profiles
from oracles import (
    build_aocr_thr,
    certified_ratio_lp_only,
    cold_program,
    highs_lp,
    kept_tableau_gap,
    kept_vertex,
    phi_bruteforce_witness,
    primal_feasible_values,
    same_program,
    seeded_block_gap,
)


def test_fixed_policy_hand_trace(tiny_instance):
    """d = [2, 2], pi = 4/3: slot 1 reference [2,1] has v = 1, discharge
    2 - 4/3 = 2/3; slot 2 reference [2,2] has v = 1.5, discharge 0."""
    run = run_pcr_pmd(tiny_instance, 4.0 / 3.0, DemandProfile(tiny_instance, [2.0, 2.0]))
    assert run.schedule.values[0] == pytest.approx(2.0 / 3.0)
    assert run.schedule.values[1] == pytest.approx(0.0)
    assert run.final_peak == pytest.approx(2.0)
    assert not run.clamp_engaged


def test_pcr_step_matches_run(tiny_instance):
    state = OnlineState(tiny_instance)
    d1 = 1.8
    delta = pcr_step(tiny_instance, state, 4.0 / 3.0, d1)
    # reference [1.8, 1.0] with budget 1 floods both slots: v = 0.9
    assert delta == pytest.approx(1.8 - 4.0 / 3.0 * 0.9)
    state.observe(d1)
    state.commit(delta)
    run = run_pcr_pmd(tiny_instance, 4.0 / 3.0, DemandProfile(tiny_instance, [1.8, 1.0]))
    assert run.schedule.values[0] == pytest.approx(delta)


def test_fixed_policy_respects_ratio_guarantee(tiny_instance):
    pi_star = optimal_cr(tiny_instance).pi_star
    for row in random_profiles(tiny_instance, 400, seed=2):
        demand = DemandProfile(tiny_instance, row)
        run = run_pcr_pmd(tiny_instance, pi_star, demand)
        off = offline_peak(tiny_instance, demand)
        assert run.final_peak <= pi_star * off + 1e-9
        assert not run.clamp_engaged


def test_fixed_policy_below_pi_star_clamps_on_witness(tiny_instance):
    """Pursuing an infeasible ratio must eventually hit the inventory clamp on
    the worst-case discharge witness."""
    pi_bad = 1.05
    _, witness = phi_bruteforce_witness(tiny_instance, pi_bad, 0.05)
    run = run_pcr_pmd(tiny_instance, pi_bad, DemandProfile(tiny_instance, witness))
    assert run.clamp_engaged
    assert run.inventory_spent <= tiny_instance.capacity_c + 1e-9


@pytest.mark.parametrize("pi", [float("nan"), 0.5, 0.999, float("inf")])
def test_fixed_policy_rejects_ratio_below_one(tiny_instance, pi):
    demand = DemandProfile(tiny_instance, [2.0, 2.0])
    with pytest.raises(ValueError, match="pi must be >= 1"):
        run_pcr_pmd(tiny_instance, pi, demand)
    with pytest.raises(ValueError, match="pi must be >= 1"):
        pcr_step(tiny_instance, OnlineState(tiny_instance), pi, 2.0)
    with pytest.raises(ValueError, match="initial_ratio"):
        PolicyOptions(initial_ratio=pi)


def test_policy_options_reject_infinite_initial_ratio():
    """An infinite initial ratio used to reach the bisection, which wrote
    inf into the kept LP's objective and ended at the simplex iteration
    cap; it is rejected where it is set, and a large finite one runs."""
    with pytest.raises(ValueError, match="initial_ratio must be finite"):
        PolicyOptions(initial_ratio=float("inf"))
    inst = Instance(2.0, None, 3, 1.0, 3.0)
    run = run_anytime(inst, DemandProfile(inst, [3.0, 1.0, 2.0]),
                      PolicyOptions(initial_ratio=1e6))
    assert run.ratio_trajectory[0] < 1e6


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_policy_settings_reject_nan_and_infinity(bad):
    """A NaN epsilon used to skip the bisection: on this instance
    anytime_ratio certified 1.8 (the seed ratio) instead of 1.333398."""
    inst = Instance(2.0, None, 3, 1.0, 3.0)
    with pytest.raises(ValueError, match="bisection_epsilon"):
        PolicyOptions(bisection_epsilon=bad)
    with pytest.raises(NonPositiveBound, match="monthly_peak"):
        PolicyOptions(monthly_peak=bad)
    with pytest.raises(ValueError, match="epsilon"):
        anytime_ratio(inst, OnlineState(inst), 3.0, epsilon=bad)
    assert anytime_ratio(inst, OnlineState(inst), 3.0) == pytest.approx(1.333398, abs=1e-6)


@pytest.mark.parametrize("field, error", [("monthly_peak", NonPositiveBound),
                                          ("initial_ratio", ValueError)],
                         ids=["monthly_peak", "initial_ratio"])
def test_policy_options_reject_a_bool_number(field, error):
    """monthly_peak=True used to run with a 1 kWh standing peak, and
    initial_ratio=True to seed the certification with ratio 1."""
    with pytest.raises(error, match=field):
        PolicyOptions(**{field: True})


def test_one_error_for_a_bad_monthly_peak(tiny_instance):
    """PolicyOptions and OnlineState state one rule for monthly_peak and
    raise one error for it; PolicyOptions used to raise ValueError."""
    for build in (lambda: PolicyOptions(monthly_peak=-1.0),
                  lambda: OnlineState(tiny_instance, monthly_peak=-1.0)):
        with pytest.raises(NonPositiveBound, match="monthly_peak must be finite and >= 0, got -1.0"):
            build()


@pytest.mark.parametrize("build, message", [
    (lambda inst: PolicyOptions(mode="greedy"), "unknown mode 'greedy'"),
    (lambda inst: online.PolicyRun.from_actions(inst, DemandProfile(inst, [2.0, 2.0]), [0.0, 0.0],
                                                [1.2, 1.3]), "must be nonincreasing"),
], ids=["unknown-mode", "rising-trajectory"])
def test_policy_records_refuse_what_no_policy_runs(tiny_instance, build, message):
    with pytest.raises(ValueError, match=message):
        build(tiny_instance)


def test_fixed_policy_runs_where_no_ratio_can_be_certified():
    """At c = T d_lb a day of lower-bound demands has offline peak 0: the
    fixed policy still discharges [d_t - pi v_t]^+ = d_t, while the anytime
    policy stops, since no ratio is defined there."""
    inst = Instance(2.0, None, 2, 1.0, 2.0)
    demand = DemandProfile(inst, [1.0, 1.0])
    run = run_pcr_pmd(inst, 1.5, demand)
    assert run.schedule.values.tolist() == [1.0, 1.0] and not run.clamp_engaged
    with pytest.raises(DegenerateOfflinePeak, match="reference offline peak 0.0 at slot 1"):
        run_anytime(inst, demand, PolicyOptions(initial_ratio=1.5))


def test_fixed_policy_rejects_a_bool_ratio(tiny_instance):
    with pytest.raises(ValueError, match="pi must be >= 1"):
        run_pcr_pmd(tiny_instance, True, DemandProfile(tiny_instance, [2.0, 2.0]))


def _mid_slot(inst):
    state = OnlineState(inst)
    state.observe(2.0)
    return state


@pytest.mark.parametrize("call, error, message", [
    (lambda inst: PolicyOptions(monthly_peak="5"), NonPositiveBound, "monthly_peak must be"),
    (lambda inst: PolicyOptions(monthly_peak=None), NonPositiveBound, "monthly_peak must be"),
    (lambda inst: PolicyOptions(initial_ratio="1.5"), ValueError, "initial_ratio must be"),
    (lambda inst: OnlineState(inst, monthly_peak="1"), NonPositiveBound, "monthly_peak must be"),
    (lambda inst: OnlineState(inst, prev_ratio=None), ValueError, "prev_ratio must be"),
    (lambda inst: run_pcr_pmd(inst, "1.5", DemandProfile(inst, [2.0, 2.0])), ValueError,
     "pi must be"),
    (lambda inst: run_pcr_pmd(inst, None, DemandProfile(inst, [2.0, 2.0])), ValueError,
     "pi must be"),
    (lambda inst: run_pcr_pmd(inst, Decimal("1.5"), DemandProfile(inst, [2.0, 2.0])), ValueError,
     "pi must be"),
    (lambda inst: pcr_step(inst, OnlineState(inst), "1.5", 2.0), ValueError, "pi must be"),
    (lambda inst: online.depleting_amount(inst, _mid_slot(inst), 1.5, "0"), ValueError,
     "base_delta must be"),
], ids=["options-peak-str", "options-peak-none", "options-ratio-str", "state-peak-str",
        "state-ratio-none", "fixed-str", "fixed-none", "fixed-decimal", "step-str", "delta-str"])
def test_a_number_that_is_no_real_raises_its_own_error(tiny_instance, call, error, message):
    """The bounds checks take only real numbers, as is_positive does. A str
    or None used to reach the comparison and raise TypeError, and a Decimal
    ratio passed to fail mid-run in pi * v_ref."""
    with pytest.raises(error, match=message):
        call(tiny_instance)


def test_epsilon_must_be_a_number_not_a_bool():
    """A bool epsilon used to pass as 1: anytime_ratio on this instance
    certified 1.8 where the default epsilon certifies 1.333398."""
    inst = Instance(2.0, None, 3, 1.0, 3.0)
    with pytest.raises(ValueError, match="bisection_epsilon"):
        PolicyOptions(bisection_epsilon=True)
    with pytest.raises(ValueError, match="epsilon"):
        anytime_ratio(inst, OnlineState(inst), 3.0, epsilon=True)


def test_online_steps_reject_a_state_of_another_instance(tiny_instance):
    """pcr_step and anytime_ratio admit the demand through the state, so the
    state must be of their instance: one built on another (here with a
    wider d_ub, under which 2.5 is admissible) is refused."""
    wider = replace(tiny_instance, demand_ub=3.0)
    with pytest.raises(ValueError, match="another instance"):
        pcr_step(tiny_instance, OnlineState(wider), 4.0 / 3.0, 2.5)
    with pytest.raises(ValueError, match="another instance"):
        anytime_ratio(tiny_instance, OnlineState(wider), 2.5)
    assert pcr_step(tiny_instance, OnlineState(replace(tiny_instance)), 4.0 / 3.0, 2.0) >= 0.0


def test_fixed_policy_rejects_out_of_bounds_demand(tiny_instance):
    state = OnlineState(tiny_instance)
    with pytest.raises(DemandOutOfBounds):
        pcr_step(tiny_instance, state, 4.0 / 3.0, 2.7)


def test_demand_just_above_the_box_still_certifies():
    """observe() admits a demand up to EPS_KWH above d_ub, so an undischarged
    slot can leave the running peak above d_ub. The next slot's certificate
    (and its depleting slack) must answer as on d_ub itself: the future
    demands' box [max(d_lb, running peak), d_ub] was inverted and its LP
    ended infeasible."""
    inst = Instance(capacity_c=1.0, rate_limit=None, horizon_T=4, demand_lb=1.0, demand_ub=3.0)
    ratios, slacks = [], []
    for d1 in (inst.demand_ub, inst.demand_ub + 5e-10):
        state = OnlineState(inst)
        state.observe(d1)
        state.commit(0.0)
        ratios.append(anytime_ratio(inst, state, 2.0))
        state.observe(2.0)
        slacks.append(online.depleting_amount(inst, state, ratios[-1], 0.0))
    assert ratios[1] == pytest.approx(ratios[0], abs=1e-6)
    assert slacks[1] == pytest.approx(slacks[0], abs=1e-6)


@pytest.mark.parametrize("pi_t, base_delta, state_kind, message", [
    (0.0, 0.0, "own", "pi must be"), (math.inf, 0.0, "own", "pi must be"),
    (math.nan, 0.0, "own", "pi must be"), (True, 0.0, "own", "pi must be"),
    (2.0, -5.0, "own", "base_delta"), (2.0, math.nan, "own", "base_delta"),
    (2.0, 0.0, "other", "another instance"), (2.0, 0.0, "committed", "must be mid-slot"),
], ids=["pi-zero", "pi-inf", "pi-nan", "pi-bool", "negative-delta", "nan-delta", "other-instance",
        "between-slots"])
def test_depleting_amount_checks_its_inputs(pi_t, base_delta, state_kind, message):
    """depleting_amount checks what pcr_step checks. Unchecked, pi_t = 0
    raised NegativeSlack, pi_t = inf or NaN discharged the whole slot (the
    certificate LP answered NaN, read as no requirement), True ran as 1, a
    negative or NaN base_delta came back raised by the slack, and a state
    of another instance was certified on the wrong bounds. A state between
    slots has no demand to raise a discharge for."""
    inst = Instance(capacity_c=90.0, rate_limit=None, horizon_T=4, demand_lb=50.0, demand_ub=100.0)
    state = OnlineState(replace(inst, demand_ub=120.0) if state_kind == "other" else inst)
    state.observe(80.0)
    assert online.depleting_amount(state.instance, state, 2.0, 0.0) >= 0.0
    if state_kind == "committed":
        state.commit(0.0)
    with pytest.raises(ValueError, match=message):
        online.depleting_amount(inst, state, pi_t, base_delta)


def test_depleting_amount_rejects_a_ratio_the_standing_peak_breaks():
    """A pi_t below floor / U, the standing peak max(running peak, monthly
    peak) over U = max(d_ub, observed demands), by more than 1e-9 raises
    ValueError naming that peak: no scenario program exists there, since
    every benchmark's box [floor / pi_t, U] is empty. With a monthly peak
    of 3 over d_ub = 2 and d_1 = 2, pi_t = 1 used to return 0.0 for a
    ratio the monthly peak already breaks; 3 / 2 is the smallest pi_t it
    takes, to 1e-9."""
    inst = Instance(1.0, None, 4, 1.0, 2.0)
    state = OnlineState(inst, monthly_peak=3.0)
    state.observe(2.0)
    for pi_t in (1.0, 1.5 - 2e-9):
        with pytest.raises(ValueError, match="standing peak 3.0"):
            online.depleting_amount(inst, state, pi_t, 0.0)
    for pi_t in (1.5 - 1e-10, 1.5):
        assert online.depleting_amount(inst, state, pi_t, 0.0) >= 0.0


@pytest.mark.parametrize("mode", [MODE_ANYTIME, MODE_ANYTIME_DEPLETING])
@pytest.mark.parametrize("horizon, d_lb, d_ub, floor, rounds_above", [
    (6, 1.0277499332135034, 1.5312875193116091, 2.39328305160707, False),
    (7, 0.8906069372129758, 1.942211990320751, 3.258212298185426, True),
], ids=["v_ref-above-U", "floor-over-pi-above-U"])
def test_no_storage_certifies_the_standing_peak_despite_rounding(mode, horizon, d_lb, d_ub,
                                                                 floor, rounds_above):
    """With no storage, a monthly peak above d_ub and every demand at d_ub,
    each slot certifies pi_lb = floor / v_ref, where v_ref = U = d_ub in
    exact arithmetic. In floating point floor / pi_lb can round above U
    (every slot of the second day), so pi_lb leaves the benchmark box
    [floor / pi, U] empty by a rounding: the certificate LP and the
    depleting check absorb it rather than raise, and certify what they did
    before U stopped moving with pi. On the first day S_6 / 6 rounds an
    ulp above U at the last slot, but the water-fill level is clamped at
    the largest demand, so v_ref = U and that day certifies floor / d_ub at
    every slot."""
    inst = Instance(0.0, None, horizon, d_lb, d_ub)
    run = run_anytime(inst, DemandProfile(inst, np.full(horizon, d_ub)),
                      PolicyOptions(mode=mode, monthly_peak=floor))
    prefixes = np.tri(horizon, dtype=bool)
    v_ref = offline_peak_values(inst, np.where(prefixes, d_ub, d_lb))
    assert (v_ref == d_ub).all()
    assert (floor / (floor / v_ref) > d_ub).any() == rounds_above
    assert np.array_equal(run.ratio_trajectory, floor / v_ref)
    assert not run.schedule.values.any()


def test_anytime_slot1_hand_values(tiny_instance):
    """After observing d_1 the smallest guaranteeable ratio is known in closed
    form on the tiny instance: 1.2 at d_1 = 2 and 4/3 at d_1 = 1."""
    state = OnlineState(tiny_instance, prev_ratio=4.0 / 3.0)
    assert anytime_ratio(tiny_instance, state, 2.0, epsilon=1e-5) == pytest.approx(
        1.2, abs=1e-4
    )
    state = OnlineState(tiny_instance, prev_ratio=4.0 / 3.0)
    assert anytime_ratio(tiny_instance, state, 1.0, epsilon=1e-5) == pytest.approx(
        4.0 / 3.0, abs=1e-4
    )


def test_anytime_trajectory_nonincreasing_and_bounded(tiny_instance):
    pi_star = optimal_cr(tiny_instance).pi_star
    for row in random_profiles(tiny_instance, 150, seed=31):
        demand = DemandProfile(tiny_instance, row)
        run = run_anytime(tiny_instance, demand,
                          PolicyOptions(initial_ratio=pi_star, bisection_epsilon=1e-4))
        traj = run.ratio_trajectory
        assert (np.diff(traj) <= 1e-9).all()
        assert traj[0] <= pi_star + 1e-9
        off = offline_peak(tiny_instance, demand)
        assert run.final_peak <= (traj[-1] + 1e-4) * off + 1e-6


def test_anytime_seeded_at_one_bisects_up_to_the_demand_ceiling(tiny_instance):
    """An initial ratio of 1 sits at the first slot's floor, so where 1 is
    not certifiable the bisection's upper endpoint falls back to
    demand_ub / v_ref. The run still certifies a nonincreasing trajectory
    that bounds its peak, each slot within epsilon of the default run's."""
    epsilon = 1e-4
    for row in random_profiles(tiny_instance, 40, seed=43):
        demand = DemandProfile(tiny_instance, row)
        run = run_anytime(tiny_instance, demand, PolicyOptions(initial_ratio=1.0))
        traj = run.ratio_trajectory
        assert (np.diff(traj) <= 1e-9).all()
        assert run.final_peak <= (traj[-1] + epsilon) * offline_peak(tiny_instance, demand) + 1e-6
        default = run_anytime(tiny_instance, demand).ratio_trajectory
        assert np.abs(traj - default).max() <= epsilon


@pytest.mark.parametrize("rate_limit", [None, 100.0], ids=["rate-free", "rate-limited"])
def test_pi_star_and_anytime_runs_are_scale_invariant(rate_limit):
    """A change of kWh unit changes no answer: with every kWh quantity
    (capacity, rate limit, demand bounds and demands) scaled by 1e-3, 1e3
    and 1e6, pi* and a T=10 volatile day's anytime ratio trajectory stay,
    and its final peak scales, each within 1e-12 relative (about 1e-15
    measured)."""
    ps = synthetic_volatile_profiles(1, 10, 100.0, 400.0, seed=3)
    day, capacity = ps.day_values[0], 0.2 * ps.avg_daily_energy

    def answers(scale):
        inst = Instance(capacity * scale, None if rate_limit is None else rate_limit * scale,
                        10, 100.0 * scale, 400.0 * scale)
        run = run_anytime(inst, DemandProfile(inst, day * scale))
        return optimal_cr(inst).pi_star, run.ratio_trajectory, run.final_peak / scale

    pi_star, trajectory, final_peak = answers(1.0)
    for scale in (1e-3, 1e3, 1e6):
        scaled = answers(scale)
        assert scaled[0] == pytest.approx(pi_star, rel=1e-12, abs=0)
        np.testing.assert_allclose(scaled[1], trajectory, rtol=1e-12, atol=0)
        assert scaled[2] == pytest.approx(final_peak, rel=1e-12, abs=0)


@pytest.mark.parametrize("day", [[1.0, 2.0], [1.5, 2.0]])
def test_anytime_checks_a_seed_below_pi_star(tiny_instance, day):
    """A seed is a bracket, not a certificate: seeded at 1.2, below pi* =
    4/3, the run used to report ratio 1.2 at both slots while its peak broke
    it (1.4 against the offline 1.0, and 1.6 against 1.2 x 1.25 = 1.5), the
    clamp cutting a discharge. The seed does not certify on these days, so
    the first slot bisects up from it, and the ratio the run reports bounds
    its peak."""
    demand = DemandProfile(tiny_instance, day)
    run = run_anytime(tiny_instance, demand, PolicyOptions(initial_ratio=1.2))
    traj = run.ratio_trajectory
    assert traj[0] > 1.2
    assert (np.diff(traj) <= 1e-9).all()
    assert run.final_peak <= traj[-1] * offline_peak(tiny_instance, demand) + 1e-9
    assert not run.clamp_engaged


def test_anytime_ratio_checks_the_states_ratio(tiny_instance):
    """anytime_ratio on a state whose prev_ratio is 1.2: at d_1 = 1 the
    smallest guaranteeable ratio is 4/3, which the bisection now reaches
    from above 1.2; at d_1 = 2 it is 1.2 itself, a tie within rounding of
    the inventory, which is kept."""
    state = OnlineState(tiny_instance, prev_ratio=1.2)
    ratio = anytime_ratio(tiny_instance, state, 1.0, epsilon=1e-5)
    assert 4.0 / 3.0 <= ratio <= 4.0 / 3.0 + 1e-5
    state = OnlineState(tiny_instance, prev_ratio=1.2)
    assert anytime_ratio(tiny_instance, state, 2.0, epsilon=1e-5) == 1.2


@pytest.mark.parametrize(
    "inst",
    [Instance(9.981780804854415, None, 5, 2.8255111545554437, 4.645418481856983),
     Instance(2.0, None, 3, 2.0, 2.0)],
    ids=["t5", "flat-box"],
)
@pytest.mark.parametrize("mode", [MODE_ANYTIME, MODE_ANYTIME_DEPLETING])
def test_anytime_keeps_its_ratio_at_a_tie_with_the_standing_peak(inst, mode):
    """On the all-d_lb day the standing peak forces pi_lb = prev_ratio at a
    slot whose requirement there exceeds the remaining inventory by
    rounding only (1.8e-15 on the T=5 instance, at slot 2). The run keeps
    the ratio it certified instead of bisecting up to the demand ceiling:
    it used to raise "ratio_trajectory must be nonincreasing" on the T=5
    instance and to certify 1.00006 above pi* = 1 where d_lb = d_ub."""
    pi_star = optimal_cr(inst).pi_star
    demand = DemandProfile(inst, np.full(inst.horizon_T, inst.demand_lb))
    run = run_anytime(inst, demand, PolicyOptions(mode=mode))
    assert (np.diff(run.ratio_trajectory) <= 1e-9).all()
    assert run.ratio_trajectory.max() <= pi_star + 1e-9
    assert run.final_peak <= run.ratio_trajectory[-1] * offline_peak(inst, demand) + 1e-9


def test_anytime_runs_the_worst_case_days_of_small_instances():
    """Random instances at T <= 6, with and without a rate limit, each run
    in both modes on its all-d_lb, all-d_ub and optimal_cr witness days:
    no run raises and none certifies a ratio above pi*. Before ties with
    the standing peak were kept, some of these runs raised and others
    certified a ratio above pi*."""
    rng = np.random.default_rng(5)
    runs = 0
    for _ in range(40):
        T = int(rng.integers(2, 7))
        lo = float(rng.uniform(1.0, 5.0))
        hi = lo if rng.random() < 0.1 else lo * float(rng.uniform(1.0, 3.0))
        c = float(rng.uniform(0.05, 0.95)) * T * lo
        rate = None if rng.random() < 0.6 else float(rng.uniform(c / T, hi))
        inst = Instance(c, rate, T, lo, hi)
        res = optimal_cr(inst)
        days = [np.full(T, lo), np.full(T, hi)]
        if res.witness_profile is not None:
            days.append(res.witness_profile.values)
        for day in days:
            for mode in (MODE_ANYTIME, MODE_ANYTIME_DEPLETING):
                run = run_anytime(inst, DemandProfile(inst, day), PolicyOptions(mode=mode))
                assert run.ratio_trajectory.max() <= res.pi_star + 1e-9, (inst, day, mode)
                runs += 1
    assert runs >= 200


def test_anytime_beats_fixed_on_every_profile(tiny_instance):
    pi_star = optimal_cr(tiny_instance).pi_star
    for row in random_profiles(tiny_instance, 150, seed=37):
        demand = DemandProfile(tiny_instance, row)
        fixed = run_pcr_pmd(tiny_instance, pi_star, demand)
        anyt = run_anytime(tiny_instance, demand,
                           PolicyOptions(initial_ratio=pi_star))
        assert anyt.final_peak <= fixed.final_peak + 1e-9


def test_anytime_seeds_pi_star_automatically(tiny_instance):
    demand = DemandProfile(tiny_instance, [2.0, 1.0])
    explicit = run_anytime(
        tiny_instance, demand,
        PolicyOptions(initial_ratio=optimal_cr(tiny_instance).pi_star),
    )
    auto = run_anytime(tiny_instance, demand, PolicyOptions())
    assert np.allclose(explicit.ratio_trajectory, auto.ratio_trajectory)
    assert np.allclose(explicit.schedule.values, auto.schedule.values)


def test_depleting_identical_trajectories_spends_everything(tiny_instance):
    for row in random_profiles(tiny_instance, 200, seed=43):
        demand = DemandProfile(tiny_instance, row)
        plain = run_anytime(tiny_instance, demand, PolicyOptions(mode=MODE_ANYTIME))
        dep = run_anytime(tiny_instance, demand,
                          PolicyOptions(mode=MODE_ANYTIME_DEPLETING))
        assert np.allclose(plain.ratio_trajectory, dep.ratio_trajectory, atol=1e-12)
        assert dep.inventory_spent == pytest.approx(tiny_instance.capacity_c, abs=1e-9)
        assert dep.final_peak <= plain.final_peak + 1e-9


def test_depleting_respects_rate_limit():
    inst = Instance(1.0, 0.5, 3, 1.0, 2.0)
    for row in random_profiles(inst, 150, seed=47):
        demand = DemandProfile(inst, row)
        dep = run_anytime(inst, demand, PolicyOptions(mode=MODE_ANYTIME_DEPLETING))
        assert (dep.schedule.values <= 0.5 + 1e-9).all()
        # a tight rate limit can leave inventory stranded; spent stays feasible
        assert dep.inventory_spent <= inst.capacity_c + 1e-9


def test_anytime_no_clamp_at_optimal_seed(tiny_instance):
    for row in random_profiles(tiny_instance, 200, seed=53):
        run = run_anytime(tiny_instance, DemandProfile(tiny_instance, row),
                          PolicyOptions(mode=MODE_ANYTIME))
        assert not run.clamp_engaged


def test_rate_limited_anytime_feasible():
    inst = Instance(1.2, 0.6, 3, 1.0, 3.0)
    pi_star = optimal_cr(inst).pi_star
    for row in random_profiles(inst, 100, seed=59):
        demand = DemandProfile(inst, row)
        run = run_anytime(inst, demand, PolicyOptions(initial_ratio=pi_star))
        assert (run.schedule.values <= 0.6 + 1e-9).all()
        off = offline_peak(inst, demand)
        assert run.final_peak <= (run.ratio_trajectory[-1] + 1e-4) * off + 1e-6


def test_monthly_floor_high_peak_suppresses_discharge(tiny_instance):
    """A standing monthly peak at the demand ceiling makes every discharge
    pointless; the policy should hold its inventory."""
    demand = DemandProfile(tiny_instance, [2.0, 2.0])
    run = run_anytime(
        tiny_instance, demand,
        PolicyOptions(mode=MODE_ANYTIME, monthly_peak=tiny_instance.demand_ub),
    )
    assert run.inventory_spent == pytest.approx(0.0, abs=1e-9)
    assert run.final_peak == pytest.approx(2.0)


def test_monthly_modes_never_discharge_below_standing_peak(tiny_instance):
    d_op = 1.6
    for row in random_profiles(tiny_instance, 150, seed=61):
        demand = DemandProfile(tiny_instance, row)
        run = run_anytime(
            tiny_instance, demand,
            PolicyOptions(mode=MODE_ANYTIME, monthly_peak=d_op),
        )
        net = row - run.schedule.values
        discharging = run.schedule.values > 1e-9
        assert (net[discharging] >= d_op - 1e-6).all()


def test_anytime_on_dhat_matches_final_ratio():
    inst = Instance(630.0, None, 10, 300.0, 600.0)
    demand = DemandProfile(inst, DHAT)
    run = run_anytime(inst, demand, PolicyOptions(bisection_epsilon=1e-4))
    off = solve_offline_pmd(inst, demand).peak
    assert off == pytest.approx(474.0)
    assert run.final_peak <= (run.ratio_trajectory[-1] + 1e-4) * off + 1e-6
    assert (np.diff(run.ratio_trajectory) <= 1e-9).all()


def _volatile_day(rate_limit, capacity_rate, day):
    days = synthetic_volatile_profiles(4, 10, 100.0, 400.0, seed=13)
    inst = Instance(capacity_rate * days.avg_daily_energy, rate_limit, 10, 100.0, 400.0)
    return inst, DemandProfile(inst, days.day_values[day])


@pytest.mark.parametrize(
    "rate_limit, capacity_rate, day, mode, monthly_peak",
    [
        (None, 0.3, 1, MODE_ANYTIME, 0.0),
        (70.0, 0.3, 2, MODE_ANYTIME, 0.0),
        (None, 0.2, 1, MODE_ANYTIME, 125.0),
        (None, 0.4, 2, MODE_ANYTIME_DEPLETING, 0.0),
    ],
    ids=["volatile", "rate-limited", "monthly", "depleting"],
)
def test_basis_reuse_keeps_trajectories_bit_identical(
    monkeypatch, rate_limit, capacity_rate, day, mode, monthly_peak
):
    """Re-pricing the kept tableau changes how each LP is solved, never the
    certified ratios or the discharges: on the case's day and the next one,
    both must match a run whose solve_lp drops the tableau the LP's
    standard form keeps before every solve, so that every LP is solved
    cold."""
    warm = []

    def warm_solve_lp(lp):
        warm.append(lp._tab is not None)
        return lp_mod.solve_lp(lp)

    def cold_solve_lp(lp):
        lp._tab = None
        return lp_mod.solve_lp(lp)

    for d in (day, day + 1):
        inst, demand = _volatile_day(rate_limit, capacity_rate, d)
        options = PolicyOptions(mode=mode, monthly_peak=monthly_peak,
                                initial_ratio=optimal_cr(inst).pi_star)
        monkeypatch.setattr(online, "solve_lp", warm_solve_lp)
        reused = run_anytime(inst, demand, options)
        monkeypatch.setattr(online, "solve_lp", cold_solve_lp)
        # the cold run must certify its slots, not read the warm run's answers
        online._certify.cache_clear()
        cold = run_anytime(inst, demand, options)
        assert np.array_equal(reused.ratio_trajectory, cold.ratio_trajectory)
        assert np.array_equal(reused.schedule.values, cold.schedule.values)
    # the days must bisect, so that cutoffs are re-solved from a kept tableau
    assert sum(warm) >= 50


def test_future_requirement_rejects_large_residual(monkeypatch, tiny_instance):
    """An answer whose residual exceeds 1e-6 raises inside solve_lp, for any
    LP and for the certificate LPs of run_anytime alike."""
    real_read = lp_mod._read_basis

    def sloppy_read(*args):
        found = real_read(*args)
        return None if found is None else (found[0] + 1e-2, found[1])

    monkeypatch.setattr(lp_mod, "_read_basis", sloppy_read)
    textbook = LinearProgram(
        objective=np.array([3.0, 2.0]),
        a=np.array([[1.0, 1.0], [1.0, 3.0]]),
        b=np.array([4.0, 6.0]),
        lb=np.zeros(2),
        ub=np.full(2, np.inf),
    )
    with pytest.raises(NumericalFailure, match="residual"):
        lp_mod.solve_lp(textbook)
    with pytest.raises(NumericalFailure, match="residual"):
        run_anytime(tiny_instance, DemandProfile(tiny_instance, [2.0, 1.0]),
                    PolicyOptions(initial_ratio=4.0 / 3.0))


def test_anytime_t20_slot2_certifies():
    """Day 0 of a seed-7 volatile T=20 set at c = 0.1 of the mean daily
    energy: run_anytime certifies slot 1 at the ratio below and spends
    nothing. Slot 2 used to raise NumericalFailure (cutoff 19, residual
    0.0243) from a phase-1 solve. Only slot 2 is certified here."""
    days = synthetic_volatile_profiles(2, 20, 100.0, 400.0, seed=7)
    inst = days.instance(0.1 * days.avg_daily_energy, None)
    d = days.day_values[0]
    slot1_ratio = 1.6074808609187756
    state = OnlineState(inst, prev_ratio=slot1_ratio)
    state.observe(float(d[0]))
    state.commit(0.0)
    pi_2 = anytime_ratio(inst, state, float(d[1]))
    assert 1.0 <= pi_2 <= slot1_ratio


def test_future_requirement_without_binding_inventory():
    """c > T * rate: the scenario programs cannot spend the inventory, so the
    printed form is infeasible (by HiGHS), every cutoff imposes no
    requirement, and optimal_cr answers 1, all by the one
    inventory_unbounded test."""
    pytest.importorskip("scipy")
    inst = Instance(1.5, 0.4, 3, 1.0, 2.0)
    assert inventory_unbounded(inst)
    assert optimal_cr(inst).pi_star == 1.0
    state = OnlineState(inst)
    state.observe(1.5)
    view = online._slot_view(inst, state)
    for k in (2, 3):
        assert highs_lp(build_aocr_thr(inst, state, 1.2, range(2, k + 1))) is None
        assert online._future_requirement(view, 1.2, k, online._WarmStart()) == -np.inf
    assert not inventory_unbounded(Instance(1.2, 0.4, 3, 1.0, 2.0))


def _mid_slot_states(inst, count, seed, monthly_peak=0.0):
    """States after t-1 slots of the fixed policy at pi*, with d_t observed."""
    pi_star = optimal_cr(inst).pi_star
    for row in random_profiles(inst, count, seed):
        for t in range(1, inst.horizon_T + 1):
            state = OnlineState(inst, monthly_peak=monthly_peak)
            for d in row[: t - 1]:
                delta = pcr_step(inst, state, pi_star, float(d))
                state.observe(float(d))
                state.commit(delta)
            state.observe(float(row[t - 1]))
            yield state


@pytest.mark.parametrize(
    "inst, monthly_peak",
    [
        (Instance(2.0, None, 6, 1.0, 2.0), 0.0),
        (Instance(2.0, 0.55, 6, 1.0, 2.0), 0.0),
        (Instance(2.0, None, 6, 1.0, 2.0), 1.7),
    ],
    ids=["rate-free", "rate-limited", "monthly"],
)
def test_reduced_future_lp_matches_full_form(inst, monthly_peak):
    """The tail-aggregated LP the bisection solves, plus the constant term,
    equals the optimum of the full printed form (by HiGHS) for every
    cutoff."""
    pytest.importorskip("scipy")
    T = inst.horizon_T
    checked = 0
    for state in _mid_slot_states(inst, 2, seed=71, monthly_peak=monthly_peak):
        view = online._slot_view(inst, state)
        for pi in (1.0, 1.12, 1.3, 1.6):
            for k in range(view.t, T + 1):
                full = highs_lp(build_aocr_thr(inst, state, pi, range(view.t + 1, k + 1)))
                reduced = online._future_requirement(view, pi, k, online._WarmStart())
                if full is None:
                    assert reduced == -np.inf
                    continue
                expected = online._constant_term(view, pi) + reduced
                assert full == pytest.approx(expected, rel=1e-9, abs=1e-9)
                checked += 1
    assert checked == 2 * 4 * sum(T - t + 1 for t in range(1, T + 1))


@pytest.mark.parametrize(
    "horizon, rate_limit",
    [(16, None), (16, 100.0), (20, None), (20, 100.0), (24, None), (24, 100.0), (30, None),
     (30, 100.0)],
    ids=["t16", "t16-rl", "t20", "t20-rl", "t24", "t24-rl", "t30", "t30-rl"],
)
def test_certificate_lp_matches_highs(monkeypatch, horizon, rate_limit):
    """Slot 3 of day 0 of a seed-7 volatile set, c = 0.3 of the mean daily
    energy, slots 1-2 committed at 0, pi = 1.6, cutoff T: the certificate
    LP's optimum equals HiGHS on the same LP, and with the constant term
    added, HiGHS on the full printed form."""
    pytest.importorskip("scipy")
    days = synthetic_volatile_profiles(2, horizon, 100.0, 400.0, seed=7)
    inst = days.instance(0.3 * days.avg_daily_energy, rate_limit)
    d = days.day_values[0]
    state = OnlineState(inst)
    for slot in range(2):
        state.observe(float(d[slot]))
        state.commit(0.0)
    state.observe(float(d[2]))
    view = online._slot_view(inst, state)
    solved = []

    def recording_solve_lp(lp):
        solved.append(lp)
        return lp_mod.solve_lp(lp)

    monkeypatch.setattr(online, "solve_lp", recording_solve_lp)
    got = online._future_requirement(view, 1.6, horizon, online._WarmStart())
    assert len(solved) == 1
    assert got == pytest.approx(highs_lp(solved[0]), rel=1e-9)
    full = highs_lp(build_aocr_thr(inst, state, 1.6, range(4, horizon + 1)))
    assert online._constant_term(view, 1.6) + got == pytest.approx(full, rel=1e-9)


def _counting_builds(monkeypatch):
    """Patch online's grow_program to record each cutoff LP it builds as
    (observed slots, cutoff); returns the list."""
    builds = []
    real_grow = online.grow_program

    def counting_grow(instance, prefix, old, k, x_lb, u_lb):
        builds.append((len(prefix), k))
        return real_grow(instance, prefix, old, k, x_lb, u_lb)

    monkeypatch.setattr(online, "grow_program", counting_grow)
    return builds


def _invariant_days():
    """(instance, day) of the eight anytime_t10 days of seed 11 (as
    perfbench/inputs.py's anytime_days draws them, each at its capacity
    rate) and the two T=20 days, each rate-free and at a 100 kWh rate
    limit."""
    rows, rates = _bench_inputs().anytime_days(harness, 11, 8)
    energy = float(rows.sum(axis=1).mean())
    for limit in (None, 100.0):
        for row, rate in zip(rows, rates):
            inst = Instance(rate * energy, limit, 10, 100.0, 400.0)
            yield inst, DemandProfile(inst, row)
        yield _t20_day(limit)


def test_every_cutoff_lp_grows_once_from_the_one_below(monkeypatch):
    """Every cutoff LP a certification builds, in the bisection and in
    depleting_amount, comes from grow_program once, at U = max(d_ub,
    prefix): cutoff t+1 from the empty program, each later cutoff from
    the one below it, as grow_program returned it. Checked on the
    anytime_t10 days of seed 11 and the two T=20 days, rate-free and at
    100 kWh, in both modes, and in monthly mode with a monthly peak of 450
    above d_ub = 400, where U stays max(d_ub, prefix)."""
    certifications = []
    real_warm, real_grow = online._WarmStart, online.grow_program

    def recording_warm():
        certifications.append([])
        return real_warm()

    def recording_grow(instance, prefix, old, k, x_lb, u_lb):
        program = real_grow(instance, prefix, old, k, x_lb, u_lb)
        top = max(instance.demand_ub, float(np.max(prefix)))
        certifications[-1].append((np.array(prefix), top, old, k, program))
        return program

    monkeypatch.setattr(online, "_WarmStart", recording_warm)
    monkeypatch.setattr(online, "grow_program", recording_grow)
    online._certify.cache_clear()
    builds = 0
    for inst, demand in _invariant_days():
        pi = optimal_cr(inst).pi_star
        for mode, monthly_peak in ((MODE_ANYTIME, 0.0), (MODE_ANYTIME_DEPLETING, 0.0),
                                   (MODE_ANYTIME, 450.0)):
            run_anytime(inst, demand, PolicyOptions(mode=mode, monthly_peak=monthly_peak,
                                                    initial_ratio=pi))
    for grown in filter(None, certifications):
        prefix, t = grown[0][0], len(grown[0][0])
        assert [k for *_, k, _program in grown] == list(range(t + 1, t + 1 + len(grown)))
        assert grown[0][2].a.shape == (0, 0)
        for (p, top, old, _k, (_lp, _w_cols, got)), before in zip(grown, [None, *grown]):
            assert np.array_equal(p, prefix) and got == top
            assert before is None or old is before[-1][0]
        builds += len(grown)
    assert builds > 1000


def _fresh_requirement(view, pi, kmax):
    """The cutoff's certificate LP built anew and solved cold, the way
    each bisection step once built it."""
    return lp_mod.solve_lp(_fresh_certificate_lp(view, pi, kmax))


def _fresh_certificate_lp(view, pi, kmax):
    """The cutoff's certificate LP at pi, built anew by oracles.cold_program."""
    inst, t = view.instance, view.t
    floor = max(view.running_peak, view.monthly_peak)
    lb_u = 0.0 if floor <= 0.0 else floor / pi
    lp, w_cols, top = cold_program(
        inst, view.demands, kmax, max(inst.demand_lb, view.running_peak), lb_u
    )
    lp.objective[: kmax - t] = 1.0
    lp.objective[w_cols] = pi
    lp.objective_constant = -pi * top * len(w_cols)
    return lp


@pytest.mark.parametrize(
    "rate_limit, monthly_peak",
    [(None, 0.0), (60.0, 0.0), (None, 450.0)],
    ids=["plain", "rate-limited", "monthly-above-ub"],
)
def test_reused_cutoff_lp_matches_fresh_build(monkeypatch, rate_limit, monthly_peak):
    """Slots 1-4 of a T=10 day, each bisected on [pi_lb, pi_lb + 1] with one
    _WarmStart over every cutoff, pi_lb = max(1, standing peak / v_ref) as
    run_anytime starts: at every step the kept cutoff LP, its objective
    and w bounds moved in place, gives the status and value of a freshly
    built program (oracles.cold_program) solved cold. Each (slot, cutoff)
    LP is built once by grow_program, with the monthly peak 450 above
    d_ub = 400 too."""
    inst, demand = _volatile_day(rate_limit, 0.3, 1)
    pi_star = optimal_cr(inst).pi_star
    builds = _counting_builds(monkeypatch)
    state = OnlineState(inst, monthly_peak=monthly_peak)
    steps = 0
    for d in demand.values[:4]:
        view = online._slot_view(inst, state, float(d))
        warm = online._WarmStart()
        lo = max(1.0, max(view.running_peak, view.monthly_peak) / view.v_ref)
        hi = lo + 1.0
        for _step in range(6):
            pi = 0.5 * (lo + hi)
            total = 0.0
            for kmax in range(view.t + 1, inst.horizon_T + 1):
                reused = online._future_requirement(view, pi, kmax, warm)
                fresh = _fresh_requirement(view, pi, kmax)
                assert fresh.status == OPTIMAL
                assert reused == pytest.approx(fresh.value, rel=1e-9, abs=1e-9)
                total = max(total, reused)
                steps += 1
            if online._constant_term(view, pi) + total > view.remaining:
                lo = pi
            else:
                hi = pi
        delta = pcr_step(inst, state, pi_star, float(d))
        state.observe(float(d))
        state.commit(delta)
    assert steps == 6 * (9 + 8 + 7 + 6)
    kept = Counter(builds)  # the fresh builds call cr.grow_program, not online's
    assert len(kept) == 9 + 8 + 7 + 6
    assert set(kept.values()) == {1}


@pytest.mark.parametrize(
    "rate_limit, monthly_peak",
    [(None, 0.0), (60.0, 0.0), (None, 380.0)],
    ids=["plain", "rate-limited", "monthly"],
)
@pytest.mark.parametrize("mode", [MODE_ANYTIME, MODE_ANYTIME_DEPLETING])
def test_cutoff_carried_basis_is_primal_feasible(monkeypatch, rate_limit, monthly_peak, mode):
    """Every basis run_anytime carries from cutoff k-1 to cutoff k, in the
    bisection and in depleting_amount, is primal feasible on cutoff k's
    standard form as it is solved (by the independent dense solve of
    oracles.primal_feasible_values), with block k at its water-fill optimum
    (oracles.seeded_block_gap); every grown cutoff LP equals the cold
    build of oracles.cold_program bit for bit; and each cutoff's LP is
    built once per certification. A slot's first cutoff grows from the
    empty program, which keeps no tableau, so nothing is carried there."""
    inst, demand = _volatile_day(rate_limit, 0.3, 2)
    pi_star = optimal_cr(inst).pi_star
    real_carry = cr.carry_basis
    carried, seeded = [], []

    def checked_carry(old, new, at, start=None):
        real_carry(old, new, at, start)
        if old._tab is not None:
            carried.append(primal_feasible_values(new, *kept_vertex(new)) is not None)

    monkeypatch.setattr(cr, "carry_basis", checked_carry)
    builds = _counting_builds(monkeypatch)
    counted_grow = online.grow_program

    def checked_grow(instance, prefix, old, k, x_lb, u_lb):
        program = counted_grow(instance, prefix, old, k, x_lb, u_lb)
        assert same_program(program, cold_program(instance, prefix, k, x_lb, u_lb))
        if old._tab is not None:
            seeded.append(seeded_block_gap(instance, prefix, u_lb, *program))
        return program

    monkeypatch.setattr(online, "grow_program", checked_grow)
    run_anytime(inst, demand, PolicyOptions(mode=mode, monthly_peak=monthly_peak,
                                            initial_ratio=pi_star))
    assert len(carried) >= 20
    assert all(carried)
    assert len(seeded) == len(carried)
    assert max(seeded) <= 1e-9
    # a depleting slot certifies and then sizes its slack: two builds
    assert max(Counter(builds).values()) <= (2 if mode == MODE_ANYTIME_DEPLETING else 1)


@pytest.mark.parametrize("rate_limit", [None, 60.0], ids=["rate-free", "rate-limited"])
def test_cutoff_tableaus_match_dense_solve(monkeypatch, rate_limit):
    """After every certificate solve of two T=10 days, in both modes, the
    tableau the cutoff's LP keeps, and after every cutoff-to-cutoff carry
    the tableau seeded on cutoff k's LP, equal B^-1 [A | b] from a fresh
    dense solve within 1e-9. A carry from a program that keeps no tableau
    (the empty program, or a prefix optimal_cr grows but does not solve)
    seeds none."""
    real_solve_lp, real_carry = online.solve_lp, cr.carry_basis
    gaps = {"kept": [], "carried": []}

    def checked_solve_lp(lp):
        res = real_solve_lp(lp)
        gaps["kept"].append(kept_tableau_gap(lp))
        return res

    def checked_carry(old, new, at, start=None):
        real_carry(old, new, at, start)
        if old._tab is None:
            assert new._tab is None
        else:
            gaps["carried"].append(kept_tableau_gap(new))

    monkeypatch.setattr(online, "solve_lp", checked_solve_lp)
    monkeypatch.setattr(cr, "carry_basis", checked_carry)
    for day in (2, 3):
        inst, demand = _volatile_day(rate_limit, 0.3, day)
        pi = optimal_cr(inst).pi_star
        for mode in (MODE_ANYTIME, MODE_ANYTIME_DEPLETING):
            # the depleting run certifies its slots too, rather than reading
            # the plain run's answers, so both runs' LPs are solved and checked
            online._certify.cache_clear()
            run_anytime(inst, demand, PolicyOptions(mode=mode, initial_ratio=pi))
    assert len(gaps["carried"]) >= 20
    assert len(gaps["kept"]) >= 100
    assert max(gaps["kept"] + gaps["carried"]) <= 1e-9


def test_lp_answers_make_no_dense_solve(monkeypatch):
    """Counted work, not time: on four fixed T=10 run_anytime runs (two
    days, plain and rate-limited, their optimal_cr included) and a T=12
    optimal_cr call, every np.linalg.solve call from peakmin.lp is a
    _factorized call (a drifted tableau's refactorization): an answer is
    read from the B^-1 its tableau keeps, with no dense solve of its own.
    A bisection step whose every cutoff was decided by a bound calls
    np.linalg.solve not at all."""
    real_solve, real_solve_lp = np.linalg.solve, lp_mod.solve_lp
    real_requirement = online._requirement
    work = Counter()

    def counting_solve(a, b):
        caller = sys._getframe(1)
        if caller.f_globals.get("__name__") == "peakmin.lp":
            work[caller.f_code.co_name] += 1
            work["solves"] += 1
        return real_solve(a, b)

    def counting_solve_lp(lp):
        res = real_solve_lp(lp)
        work["answers"] += res.status == OPTIMAL
        return res

    def counting_requirement(view, pi, budget, warm):
        before = work.copy()
        value = real_requirement(view, pi, budget, warm)
        if work["answers"] == before["answers"]:
            work["bound_steps"] += 1
            work["bound_step_solves"] += work["solves"] - before["solves"]
        return value

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    monkeypatch.setattr(lp_mod, "solve_lp", counting_solve_lp)
    monkeypatch.setattr(online, "solve_lp", counting_solve_lp)
    monkeypatch.setattr(online, "_requirement", counting_requirement)
    for rate_limit in (None, 60.0):
        for day in (1, 2):
            inst, demand = _volatile_day(rate_limit, 0.3, day)
            run_anytime(inst, demand)
    days = synthetic_volatile_profiles(1, 12, 100.0, 400.0, seed=5)
    optimal_cr(Instance(0.3 * days.avg_daily_energy, None, 12, 100.0, 400.0))
    assert work["answers"] >= 300
    assert work["solves"] == work["_factorized"]
    assert work["bound_steps"] >= 20
    assert work["bound_step_solves"] == 0


def _t20_day(rate_limit):
    """Day 0 of a seed-7 volatile T=20 set at c = 0.1 of the mean daily energy."""
    days = synthetic_volatile_profiles(2, 20, 100.0, 400.0, seed=7)
    inst = days.instance(0.1 * days.avg_daily_energy, rate_limit)
    return inst, DemandProfile(inst, days.day_values[0])


def _bounds(view, pi, cut):
    """cut's (lower, upper) bounds on its requirement at pi: the lower one
    through online._bracket with thresholds that let it through, the upper
    one from its vertex."""
    return online._bracket(view, pi, cut, -math.inf, -math.inf), cut.vertex[1](pi)


@pytest.mark.parametrize(
    "day",
    [lambda: (*_t20_day(None), 0.0), lambda: (*_t20_day(100.0), 0.0),
     lambda: (*_volatile_day(60.0, 0.3, 2), 0.0), lambda: (*_volatile_day(None, 0.3, 2), 380.0)],
    ids=["t20", "t20-rl", "t10-rl", "t10-monthly"],
)
def test_bracket_holds_around_the_cold_lp(monkeypatch, day):
    """Every vertex run_anytime reads, one per (slot, cutoff, basis),
    brackets its cutoff's requirement at every pi: at the pi it was read
    at both bounds equal the LP's answer within 1e-9 relative, and at 5
    points of [pi_lb, d_ub / v_ref] lower <= HiGHS <= upper within 1e-9
    relative, HiGHS solving a freshly built certificate LP."""
    inst, demand, monthly_peak = day()
    real = online._future_requirement
    read = {}

    def recording(view, pi, kmax, warm):
        before = warm.cutoffs.get(kmax)
        before = None if before is None else before.vertex
        value = real(view, pi, kmax, warm)
        cut = warm.cutoffs[kmax]
        if cut.vertex is not None and cut.vertex is not before:
            # a copy, whose vertex a later read does not replace
            read.setdefault((view.t, kmax, cut.basis.tobytes()), (view, pi, value, replace(cut)))
        return value

    monkeypatch.setattr(online, "_future_requirement", recording)
    run_anytime(inst, demand, PolicyOptions(monthly_peak=monthly_peak))
    assert len(read) >= 30
    for (_t, kmax, _basis), (view, pi, value, cut) in read.items():
        for bound in _bounds(view, pi, cut):
            assert bound == pytest.approx(value, rel=1e-9, abs=1e-9)
        pi_lb = max(1.0, max(view.running_peak, view.monthly_peak) / view.v_ref)
        for x in np.linspace(pi_lb, inst.demand_ub / view.v_ref, 5):
            fresh = highs_lp(_fresh_certificate_lp(view, x, kmax))
            assert fresh is not None
            lower, upper = _bounds(view, x, cut)
            slack = 1e-9 * max(1.0, abs(fresh))
            assert lower <= fresh + slack and fresh <= upper + slack


def _certificate_runs():
    """8 T=10 runs: plain, rate-limited, monthly and depleting, on two days."""
    for day in (1, 2):
        for rate_limit, mode, monthly_peak in (
            (None, MODE_ANYTIME, 0.0),
            (60.0, MODE_ANYTIME, 0.0),
            (None, MODE_ANYTIME, 380.0),
            (None, MODE_ANYTIME_DEPLETING, 0.0),
        ):
            inst, demand = _volatile_day(rate_limit, 0.3, day)
            yield inst, demand, PolicyOptions(mode=mode, monthly_peak=monthly_peak,
                                              initial_ratio=optimal_cr(inst).pi_star)


def _compared_slots(monkeypatch):
    """Runs every _certified_ratio call of the 8 _certificate_runs beside
    certified_ratio_lp_only on the same slot; returns, per slot, whether
    the two differ. A run that raises ends there."""
    real_certified = online._certified_ratio
    differ = []

    def compared(view, prev_ratio, epsilon):
        got = real_certified(view, prev_ratio, epsilon)
        differ.append(got != certified_ratio_lp_only(view, prev_ratio, epsilon))
        return got

    monkeypatch.setattr(online, "_certified_ratio", compared)
    for inst, demand, options in _certificate_runs():
        with contextlib.suppress(ValueError, NegativeSlack):
            run_anytime(inst, demand, options)
    return differ


def test_brackets_keep_certified_ratios_bit_identical(monkeypatch):
    """Slot by slot on 8 runs, _certified_ratio returns the (ratio, early)
    of the bisection that answers every cutoff by LP at every step, bit for
    bit, although at least 100 cutoffs are decided by a bound."""
    real_bracket = online._bracket
    decided = []

    def counting_bracket(*args):
        value = real_bracket(*args)
        decided.append(value is not None)
        return value

    monkeypatch.setattr(online, "_bracket", counting_bracket)
    differ = _compared_slots(monkeypatch)
    assert len(differ) == 80 and not any(differ)
    assert sum(decided) >= 100


def test_understated_upper_bound_changes_a_certificate(monkeypatch):
    """Nothing confirms a bound's decision, so the comparison must have
    teeth: with every cutoff's upper bound shifted down by 1% of its size,
    bounds decide as fitting cutoffs that the LPs do not fit, and some slot
    of the 8 runs certifies another (ratio, early) than the LP-only
    bisection."""
    real_bracket = online._bracket

    def understated(view, pi, cut, low, high):
        upper = real_bracket(view, pi, cut, math.inf, math.inf)
        if upper is not None and upper - 0.01 * abs(upper) < low:
            return upper - 0.01 * abs(upper)
        return real_bracket(view, pi, cut, low, high)

    monkeypatch.setattr(online, "_bracket", understated)
    assert any(_compared_slots(monkeypatch))


def test_bracket_straddling_the_budget_goes_to_the_lp(monkeypatch):
    """With the budget at the constant term plus the worst cutoff's own LP
    answer, that cutoff's bracket straddles budget +- _band, so its LP
    answers it and that answer decides the step; every other cutoff, below
    the budget by more than the band, is decided by its upper bound."""
    inst, demand = _volatile_day(None, 0.3, 1)
    view = online._slot_view(inst, OnlineState(inst), float(demand.values[0]))
    warm = online._WarmStart()
    pi = 1.3
    online._requirement(view, pi, math.inf, warm)  # every cutoff by LP
    values = {k: online._future_requirement(view, pi, k, warm) for k in warm.cutoffs}
    binding = max(values, key=values.get)
    const = online._constant_term(view, pi)
    budget = const + values[binding]
    lower, upper = _bounds(view, pi, warm.cutoffs[binding])
    band = online._band(budget)
    assert const + lower <= budget + band and const + upper >= budget - band
    real_bracket, solved, decided = online._bracket, [], {}

    def recording_solve_lp(lp):
        res = lp_mod.solve_lp(lp)
        solved.append((lp, res.value))
        return res

    def recording_bracket(view, pi, cut, low, high):
        decided[cut.lp] = real_bracket(view, pi, cut, low, high) is not None
        return real_bracket(view, pi, cut, low, high)

    monkeypatch.setattr(online, "solve_lp", recording_solve_lp)
    monkeypatch.setattr(online, "_bracket", recording_bracket)
    got = online._requirement(view, pi, budget, warm)
    assert [lp for lp, _value in solved] == [warm.cutoffs[binding].lp]
    assert decided == {cut.lp: k != binding for k, cut in warm.cutoffs.items()}
    assert got == const + solved[0][1]


def test_infinite_budget_decides_no_cutoff_by_a_bound(monkeypatch):
    """depleting_amount sizes its slack at an infinite budget, where a
    bound proves nothing: even on a warm start whose every cutoff keeps a
    vertex, every cutoff is answered by its LP, and the requirement is the
    exact one depleting_amount spends the slack of."""
    inst, demand = _volatile_day(None, 0.3, 1)
    state = OnlineState(inst)
    state.observe(float(demand.values[0]))
    view = online._slot_view(inst, state)
    pi = online._certified_ratio(view, optimal_cr(inst).pi_star, 1e-4)[0]
    warm = online._WarmStart()
    need = online._requirement(view, pi, math.inf, warm)
    assert len(warm.cutoffs) == inst.horizon_T - 1
    assert all(cut.vertex is not None for cut in warm.cutoffs.values())
    real_bracket, real_solve_lp, decided, solved = online._bracket, online.solve_lp, [], []

    def recording_bracket(*args):
        decided.append(real_bracket(*args) is not None)
        return real_bracket(*args)

    def counting_solve_lp(lp):
        solved.append(lp)
        return real_solve_lp(lp)

    monkeypatch.setattr(online, "_bracket", recording_bracket)
    monkeypatch.setattr(online, "solve_lp", counting_solve_lp)
    assert online._requirement(view, pi, math.inf, warm) == need
    assert len(solved) == len(decided) == inst.horizon_T - 1 and not any(decided)
    spent = online.depleting_amount(inst, state, pi, 0.0)
    assert not any(decided)
    cap = inst.slot_cap(float(demand.values[0]))
    assert spent == min(max(0.0, view.remaining - need), cap, view.remaining)


@pytest.mark.parametrize("rate_limit", [None, 60.0], ids=["rate-free", "rate-limited"])
def test_depleting_after_anytime_reads_its_certificates(monkeypatch, rate_limit):
    """On one instance and one T=10 day, anytime-deplete run after anytime
    solves no certificate LP before its first harvest (every slot state up
    to there is one the plain run certified), and its trajectory and
    schedule equal, bit for bit, those of the same run with the memo
    cleared, which does solve LPs there."""
    inst, demand = _volatile_day(rate_limit, 0.3, 2)
    pi = optimal_cr(inst).pi_star
    real_solve_lp, real_depleting = online.solve_lp, online.depleting_amount
    events = []

    def recording_solve_lp(lp):
        events.append("solve")
        return real_solve_lp(lp)

    def recording_depleting(*args):
        events.append("harvest")
        return real_depleting(*args)

    monkeypatch.setattr(online, "solve_lp", recording_solve_lp)
    monkeypatch.setattr(online, "depleting_amount", recording_depleting)
    depleting = PolicyOptions(mode=MODE_ANYTIME_DEPLETING, initial_ratio=pi)
    run_anytime(inst, demand, PolicyOptions(mode=MODE_ANYTIME, initial_ratio=pi))
    events.clear()
    served = run_anytime(inst, demand, depleting)
    assert "harvest" in events
    assert "solve" not in events[:events.index("harvest")]
    online._certify.cache_clear()
    events.clear()
    computed = run_anytime(inst, demand, depleting)
    assert events.index("harvest") >= 20  # the cleared run certified its slots
    assert np.array_equal(served.ratio_trajectory, computed.ratio_trajectory)
    assert np.array_equal(served.schedule.values, computed.schedule.values)


def test_raising_certification_is_not_stored(monkeypatch, tiny_instance):
    """A slot state whose certification raises raises again on a second
    call, and is certified afresh once the fault is gone."""
    real_read = lp_mod._read_basis

    def sloppy_read(*args):
        found = real_read(*args)
        return None if found is None else (found[0] + 1e-2, found[1])

    monkeypatch.setattr(lp_mod, "_read_basis", sloppy_read)
    state = OnlineState(tiny_instance, prev_ratio=4.0 / 3.0)
    for _ in range(2):
        with pytest.raises(NumericalFailure, match="residual"):
            anytime_ratio(tiny_instance, state, 2.0)
    assert online._certify.cache_info().currsize == 0
    monkeypatch.undo()
    assert anytime_ratio(tiny_instance, state, 2.0) >= 1.0
    assert online._certify.cache_info().currsize == 1


def _counted_certifications(monkeypatch):
    """Replace the certification behind the memo by a stub that counts its
    calls, so that memo lookups cost nothing to test."""
    calls = []

    def stub(view, prev_ratio, epsilon):
        calls.append(view)
        return 1.0, True

    monkeypatch.setattr(online, "_certified_ratio", stub)
    return calls


def test_memo_misses_on_any_changed_key_field(monkeypatch):
    """The memo serves only a state equal in every field it reads: an equal
    state built afresh is a hit; a state that differs in one field (the
    remaining inventory, the running or monthly peak, one demand by one ULP,
    prev_ratio, epsilon, a sign of zero, or an equal but distinct instance)
    is a miss and is certified."""
    calls = _counted_certifications(monkeypatch)
    inst, demand = _volatile_day(None, 0.3, 1)
    state = OnlineState(inst)
    for d in demand.values[:3]:
        state.observe(float(d))
        state.commit(5.0)
    d_t = float(demand.values[3])
    view = online._slot_view(inst, state, d_t)
    online._certify(view, 1.5, 1e-4)
    online._certify(online._slot_view(inst, state, d_t), 1.5, 1e-4)
    assert len(calls) == 1
    bumped = view.demands.copy()
    bumped[1] = np.nextafter(bumped[1], np.inf)
    variants = [
        (replace(view, remaining=np.nextafter(view.remaining, 0.0)), 1.5, 1e-4),
        (replace(view, running_peak=np.nextafter(view.running_peak, np.inf)), 1.5, 1e-4),
        (replace(view, monthly_peak=1e-300), 1.5, 1e-4),
        (replace(view, monthly_peak=-0.0), 1.5, 1e-4),
        (replace(view, demands=bumped), 1.5, 1e-4),
        (replace(view, instance=replace(inst)), 1.5, 1e-4),
        (view, np.nextafter(1.5, np.inf), 1e-4),
        (view, 1.5, np.nextafter(1e-4, 1.0)),
    ]
    for args in variants:
        online._certify(*args)
    assert len(calls) == 1 + len(variants)
    info = online._certify.cache_info()
    assert (info.hits, info.misses) == (1, 1 + len(variants))


def test_memo_holds_at_most_its_bound(monkeypatch):
    """Past MEMO_SIZE slot states the least recently used one goes, and the
    memo never holds more than MEMO_SIZE."""
    calls = _counted_certifications(monkeypatch)
    inst, demand = _volatile_day(None, 0.3, 1)
    view = online._slot_view(inst, OnlineState(inst), float(demand.values[0]))
    states = [replace(view, remaining=float(r)) for r in range(online.MEMO_SIZE + 50)]
    for state in states:
        online._certify(state, 1.5, 1e-4)
    assert online._certify.cache_info().currsize == online.MEMO_SIZE
    online._certify(states[-1], 1.5, 1e-4)  # kept: served
    online._certify(states[0], 1.5, 1e-4)  # evicted: certified again
    assert len(calls) == online.MEMO_SIZE + 51
    assert online._certify.cache_info().currsize == online.MEMO_SIZE


def test_vertex_read_is_keyed_on_the_whole_vertex(monkeypatch):
    """A cutoff's vertex read belongs to a vertex of its LP: the basis and
    the columns at their upper bound. An LP answer at the kept vertex is
    not read again; one reported with the kept basis but another set of
    columns at their upper bound is."""
    inst, demand = _volatile_day(None, 0.3, 1)
    view = online._slot_view(inst, OnlineState(inst), float(demand.values[0]))
    real_read, real_solve_lp = online.parametric_vertex, online.solve_lp
    read, moved = [], [False]

    def counting_read(*args):
        read.append(args)
        return real_read(*args)

    def solve_lp(lp):
        res = real_solve_lp(lp)
        if moved[0]:
            res = replace(res, at_upper=np.append(res.at_upper, lp.num_vars - 1))
        return res

    monkeypatch.setattr(online, "parametric_vertex", counting_read)
    monkeypatch.setattr(online, "solve_lp", solve_lp)
    warm, pi, kmax = online._WarmStart(), 1.3, inst.horizon_T
    online._future_requirement(view, pi, kmax, warm)
    assert len(read) == 1 and warm.cutoffs[kmax].vertex is not None
    online._future_requirement(view, pi, kmax, warm)
    assert len(read) == 1
    moved[0] = True
    online._future_requirement(view, pi, kmax, warm)
    assert len(read) == 2


def _bench_inputs():
    """The benchmark's input generators, perfbench/inputs.py."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = inputs  # dataclasses look their module up
    spec.loader.exec_module(inputs)
    return inputs


def _trace_days(slotting):
    """A 3-day charging trace from the benchmark's generator (seed 1001),
    ingested with slotting."""
    return ingest_trace(parse_transactions(_bench_inputs().charging_trace_csv(1001, 3)), slotting)


def _guarantee_day(source, rate_limit):
    """A T=10 day at c = 0.1 of its day set's mean energy: day 0, 1 or 2 of
    a seed-7 volatile set, or the first day of a 3-day charging trace from
    the benchmark's generator, ingested at 30-minute slots (as
    `peakmin ingest --slot-minutes 30` does)."""
    if source == "trace":
        days = _trace_days(SlottingConfig(slot_minutes=30))
        row = days.day_values[0]
    else:
        days = synthetic_volatile_profiles(3, 10, 100.0, 400.0, seed=7)
        row = days.day_values[source]
    inst = days.instance(0.1 * days.avg_daily_energy, rate_limit)
    return inst, DemandProfile(inst, row)


@pytest.mark.parametrize("rate_limit", [None, 60.0], ids=["rate-free", "rate-limited"])
@pytest.mark.parametrize("source", [0, 1, 2, "trace"], ids=["day-0", "day-1", "day-2", "trace"])
def test_anytime_guarantee_holds_on_the_certificates_worst_case(source, rate_limit):
    """The anytime guarantee, end to end, on the demands its certificate
    fears most. For each slot t and cutoff k > t, the optimal x of cutoff
    k's certificate LP at the certified pi_t becomes demands t+1..k, and
    d_lb fills the rest. run_anytime on that whole day (the same instance
    object, so the memo serves slots 1..t) never clamps and ends with
    final / offline peak at most pi_t. On each day some continuation from
    slot 1 ends within 1e-3 of pi_1, so the bound is reached, not only
    kept: a certificate that asks for too much inventory (as one without
    its aggregated tail rows does) certifies a pi_1 no demand reaches."""
    inst, demand = _guarantee_day(source, rate_limit)
    assert inst.horizon_T == 10
    options = PolicyOptions(initial_ratio=optimal_cr(inst).pi_star)
    base = run_anytime(inst, demand, options)
    state = OnlineState(inst, prev_ratio=options.initial_ratio)
    closest = {}
    for t, (d_t, delta_t, pi_t) in enumerate(
            zip(demand.values, base.schedule.values, base.ratio_trajectory), 1):
        view = online._slot_view(inst, state, float(d_t))
        warm = online._WarmStart()
        for k in range(t + 1, inst.horizon_T + 1):
            online._future_requirement(view, pi_t, k, warm)
            worst = lp_mod.solve_lp(warm.cutoffs[k].lp)
            assert worst.status == OPTIMAL
            day = np.full(inst.horizon_T, inst.demand_lb)
            day[:t], day[t:k] = demand.values[:t], worst.x[: k - t]
            continuation = DemandProfile(inst, day)
            run = run_anytime(inst, continuation, options)
            assert not run.clamp_engaged
            ratio = run.final_peak / offline_peak(inst, continuation)
            assert ratio <= pi_t * (1 + 1e-9)
            closest[t] = min(closest.get(t, math.inf), pi_t - ratio)
        state.observe(float(d_t))
        state.commit(float(delta_t))
        state.prev_ratio = pi_t
    assert closest[1] <= 1e-3


def _highs_need(inst, state, pi: float, k: int) -> float:
    """The constant term plus cutoff k's requirement at pi for the mid-slot
    state, by HiGHS on the printed certificate LP (k = t: the constant term
    alone)."""
    t = len(state.observed)
    return highs_lp(build_aocr_thr(inst, state, pi, range(t + 1, k + 1)))


def test_whole_t20_days_recertify_with_highs():
    """Every slot of four T=20 days, re-certified by an independent solver:
    both seed-7 volatile days of _t20_day (rate-free and at 100 kWh), day 0
    of the charging trace at the default 12:00-17:00 window, and day 1 of
    the volatile set in monthly mode, its standing peak the final peak of
    day 0's rate-free run. Under anytime and anytime-deplete, each slot's
    mid-slot state is rebuilt from the run's schedule and checked once
    (until its first harvest, anytime-deplete reaches the states anytime
    did). At pi_t the constant term plus the worst cutoff's requirement,
    each from HiGHS on build_aocr_thr, fits the remaining inventory up to
    1e-7 max(1, remaining). Where pi_t > pi_lb, some cutoff asks for more
    than the remaining inventory at max(pi_lb, pi_t - epsilon): no slot
    could have certified one bisection step lower."""
    pytest.importorskip("scipy")
    volatile = synthetic_volatile_profiles(2, 20, 100.0, 400.0, seed=7)
    trace = _trace_days(SlottingConfig())
    rate_free = volatile.instance(0.1 * volatile.avg_daily_energy)
    days = [
        (rate_free, volatile.day_values[0], 0.0),
        (volatile.instance(0.1 * volatile.avg_daily_energy, 100.0), volatile.day_values[0], 0.0),
        (trace.instance(0.1 * trace.avg_daily_energy), trace.day_values[0], 0.0),
        (rate_free, volatile.day_values[1], None),
    ]
    pi_star, checked, minimal = {}, set(), 0
    for inst, row, monthly_peak in days:
        assert inst.horizon_T == 20
        demand = DemandProfile(inst, row)
        if monthly_peak is None:
            day_before = run_anytime(rate_free, DemandProfile(rate_free, volatile.day_values[0]),
                                     PolicyOptions(initial_ratio=pi_star[rate_free]))
            monthly_peak = day_before.final_peak
        if inst not in pi_star:
            pi_star[inst] = optimal_cr(inst).pi_star
        for mode in (MODE_ANYTIME, MODE_ANYTIME_DEPLETING):
            options = PolicyOptions(mode=mode, monthly_peak=monthly_peak,
                                    initial_ratio=pi_star[inst])
            run = run_anytime(inst, demand, options)
            state = OnlineState(inst, monthly_peak=monthly_peak, prev_ratio=pi_star[inst])
            for t, (d_t, delta_t, pi_t) in enumerate(
                    zip(demand.values, run.schedule.values, run.ratio_trajectory), 1):
                state.observe(float(d_t))
                view = online._slot_view(inst, state)
                if (view, pi_t) not in checked:
                    checked.add((view, pi_t))
                    remaining = view.remaining
                    need = {k: _highs_need(inst, state, pi_t, k) for k in range(t, 21)}
                    worst = max(need.values())
                    assert worst <= remaining + 1e-7 * max(1.0, remaining), (mode, t, worst)
                    pi_lb = max(1.0, max(view.running_peak, monthly_peak) / view.v_ref)
                    if pi_t > pi_lb:
                        # the cutoffs that bind at pi_t most likely exceed first
                        lower = max(pi_lb, pi_t - options.bisection_epsilon)
                        assert any(_highs_need(inst, state, lower, k) > remaining
                                   for k in sorted(need, key=need.get, reverse=True)), (mode, t)
                        minimal += 1
                state.commit(float(delta_t))
                state.prev_ratio = pi_t
    assert minimal >= 20
