"""Online policies: fixed ratio pursuit, anytime certification, depleting
variant, and monthly threading."""

import numpy as np
import pytest

import peakmin.lp as lp_mod
import peakmin.online as online
from peakmin.core import DemandProfile, Instance, OnlineState
from peakmin.cr import optimal_cr, phi_bruteforce_witness
from peakmin.errors import DemandOutOfBounds, NumericalFailure
from peakmin.harness import synthetic_volatile_profiles
from peakmin.lp import INFEASIBLE, OPTIMAL, LpResult
from peakmin.offline import offline_peak, solve_offline_pmd
from peakmin.online import (
    MODE_ANYTIME,
    MODE_ANYTIME_DEPLETING,
    MODE_FIXED,
    PolicyOptions,
    anytime_ratio,
    build_aocr_thr,
    pcr_step,
    run_anytime,
    run_pcr_pmd,
)

from conftest import DHAT, random_profiles


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


def test_fixed_policy_rejects_out_of_bounds_demand(tiny_instance):
    state = OnlineState(tiny_instance)
    with pytest.raises(DemandOutOfBounds):
        pcr_step(tiny_instance, state, 4.0 / 3.0, 2.7)


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


def test_fixed_mode_dispatch(tiny_instance):
    demand = DemandProfile(tiny_instance, [2.0, 2.0])
    via_options = run_anytime(
        tiny_instance, demand, PolicyOptions(mode=MODE_FIXED, fixed_pi=4.0 / 3.0)
    )
    direct = run_pcr_pmd(tiny_instance, 4.0 / 3.0, demand)
    assert np.allclose(via_options.schedule.values, direct.schedule.values)


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
    """Re-pricing the previous basis changes how each LP is solved, never the
    certified ratios or the discharges: both must match a run whose LPs are
    all solved cold."""
    inst, demand = _volatile_day(rate_limit, capacity_rate, day)
    options = PolicyOptions(mode=mode, monthly_peak=monthly_peak,
                            initial_ratio=optimal_cr(inst).pi_star)
    hints = []

    def hinted_solve_lp(lp, basis=None):
        hints.append(basis is not None)
        return lp_mod.solve_lp(lp, basis=basis)

    monkeypatch.setattr(online, "solve_lp", hinted_solve_lp)
    reused = run_anytime(inst, demand, options)
    # the day must bisect, so that cutoffs are re-solved with a basis hint
    assert sum(hints) >= 50
    monkeypatch.setattr(online, "solve_lp", lambda lp, basis=None: lp_mod.solve_lp(lp))
    cold = run_anytime(inst, demand, options)
    assert np.array_equal(reused.ratio_trajectory, cold.ratio_trajectory)
    assert np.array_equal(reused.schedule.values, cold.schedule.values)


def test_future_requirement_rejects_large_residual(monkeypatch, tiny_instance):
    def sloppy_solve_lp(lp, basis=None):
        return LpResult(OPTIMAL, 0.0, np.zeros(lp.num_vars), residual=1e-3)

    monkeypatch.setattr(online, "solve_lp", sloppy_solve_lp)
    with pytest.raises(NumericalFailure, match="residual"):
        run_anytime(tiny_instance, DemandProfile(tiny_instance, [2.0, 1.0]),
                    PolicyOptions(initial_ratio=4.0 / 3.0))


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
    equals the optimum of the full printed form for every cutoff."""
    T = inst.horizon_T
    checked = 0
    for state in _mid_slot_states(inst, 2, seed=71, monthly_peak=monthly_peak):
        view = online._slot_view_mid(inst, state)
        for pi in (1.0, 1.12, 1.3, 1.6):
            for k in range(view.t, T + 1):
                full = lp_mod.solve_lp(
                    build_aocr_thr(inst, state, pi, range(view.t + 1, k + 1))
                )
                reduced = online._future_requirement(view, pi, k)
                if full.status == INFEASIBLE:
                    assert reduced == -np.inf
                    continue
                assert full.status == OPTIMAL
                expected = online._constant_term(view, pi) + reduced
                assert full.value == pytest.approx(expected, rel=1e-9, abs=1e-9)
                checked += 1
    assert checked == 2 * 4 * sum(T - t + 1 for t in range(1, T + 1))
