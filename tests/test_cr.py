"""Optimal competitive ratio: scenario programs, reductions, and the
worst-case-discharge characterization."""

from itertools import combinations

import numpy as np
import pytest

import peakmin.cr as cr
import peakmin.lp as lp_mod
from peakmin.core import DemandProfile, Instance
from peakmin.cr import CrResult, build_cr_compute, optimal_cr
from peakmin.errors import DegenerateInstance, EmptyIndexSet, NumericalFailure
from peakmin.harness import synthetic_volatile_profiles
from peakmin.lp import OPTIMAL, UNBOUNDED, LfpProblem, LpResult, solve_lfp
from peakmin.offline import offline_peak_values

from oracles import (
    HorizonTooLarge,
    cold_prefix_optimal_cr,
    cold_program,
    cr_ratio_oracle,
    highs_lfp_max,
    kept_tableau_gap,
    kept_vertex,
    le_arrays,
    phi_bruteforce,
    phi_bruteforce_witness,
    prefix_program,
    primal_feasible_values,
    ratio_lower_bound,
    same_program,
    scenario_program_rows,
    seeded_block_gap,
    vertex_point,
)


def test_tiny_instance_analytic_value(tiny_instance):
    """c=1, T=2, bounds [1,2]: the two-slot worst case gives pi* = 4/3,
    attained by the prefix scenario set {1, 2}."""
    res = optimal_cr(tiny_instance)
    assert res.pi_star == pytest.approx(4.0 / 3.0, abs=1e-6)
    assert res.argmax_set == (1, 2)


def test_tiny_instance_matches_grid_oracle(tiny_instance):
    grid = max(
        cr_ratio_oracle(tiny_instance, [1], 0.02),
        cr_ratio_oracle(tiny_instance, [1, 2], 0.02),
    )
    assert optimal_cr(tiny_instance).pi_star == pytest.approx(grid, abs=0.02)


def test_scenario_program_exhaustive_subsets_small():
    """Prefix sets dominate all nonempty subsets (checked exhaustively, T=3,
    each subset's printed program solved by HiGHS)."""
    pytest.importorskip("scipy")
    inst = Instance(1.2, None, 3, 1.0, 2.0)
    best_any = -np.inf
    for r in range(1, 4):
        for combo in combinations(range(1, 4), r):
            found = highs_lfp_max(build_cr_compute(inst, combo))
            if found is not None:
                best_any = max(best_any, found[0])
    prefix_best = optimal_cr(inst).pi_star
    assert prefix_best == pytest.approx(best_any, abs=1e-6)


def test_reduced_and_full_encodings_agree():
    """The reduced prefix program optimal_cr solves equals the printed form
    (by HiGHS) at every prefix {1..t}, the ones at or below tau included."""
    pytest.importorskip("scipy")
    checked = 0
    for inst in (
        Instance(1.0, None, 2, 1.0, 2.0),
        Instance(1.2, None, 3, 1.0, 2.0),
        Instance(1.0, 0.6, 3, 1.0, 2.0),
        Instance(2.0, None, 4, 1.0, 3.0),
        Instance(2.0, 0.8, 4, 1.0, 3.0),
    ):
        for t in range(1, inst.horizon_T + 1):
            idx = range(1, t + 1)
            full = highs_lfp_max(build_cr_compute(inst, idx))
            red = solve_lfp(prefix_program(inst, t))
            assert (full is not None) == (red.status == OPTIMAL)
            if full is not None:
                assert red.value == pytest.approx(full[0], abs=1e-7), (inst, t)
            checked += 1
    assert checked == 2 + 3 + 3 + 4 + 4


@pytest.mark.parametrize("rate_limited", [False, True], ids=["rate-free", "rate-limited"])
@pytest.mark.parametrize("observed", [False, True], ids=["empty-prefix", "observed"])
@pytest.mark.parametrize("u_lb_above", [False, True], ids=["u_lb-below", "u_lb-above"])
def test_scenario_program_needs_no_phase_one(rate_limited, observed, u_lb_above):
    """Every row a scenario program grown from the empty program
    (oracles.cold_program) emits, a x <= b, has a right-hand side >= 0 once
    the lower bounds are shifted to zero, and no box is empty, so its
    all-slack basis is feasible and LinearProgram takes it (it raises
    ValueError otherwise); random instances at T <= 8, u_lb below d_ub or
    at U, the largest u_lb a program takes: one above U empties the w boxes
    and raises ValueError."""
    rng = np.random.default_rng(61)
    for _ in range(12):
        T = int(rng.integers(2 if observed else 1, 9))
        lo = float(rng.uniform(0.5, 1.5))
        hi = lo * float(rng.uniform(1.2, 3.0))
        c = float(rng.uniform(0.1, 0.9) * T * lo)
        rate = c / T * float(rng.uniform(1.0, 2.0)) if rate_limited else None
        inst = Instance(c, rate, T, lo, hi)
        t = int(rng.integers(1, T)) if observed else 0
        prefix = rng.uniform(lo, hi, t)
        k = int(rng.integers(t + 1, T + 1))
        x_lb = float(rng.uniform(lo, hi))
        top = cr.scenario_top(inst, prefix)
        u_lb = top if u_lb_above else float(rng.uniform(0.0, hi))
        lp, _w_cols, _top = cold_program(inst, prefix, k, x_lb, u_lb)
        for coeffs, rhs in zip(lp.a, lp.b):
            assert rhs - coeffs @ lp.lb >= 0.0
        assert (lp.ub >= lp.lb).all()
        if u_lb_above:
            with pytest.raises(ValueError, match="empty box"):
                cold_program(inst, prefix, k, x_lb, top * float(rng.uniform(1.001, 2.0)))


def test_scenario_arrays_match_row_reference():
    """The arrays of a scenario program grown from the empty program
    (oracles.cold_program) equal the rows the row-by-row reference
    (oracles.scenario_program_rows) builds, stacked: a, b, lb, ub, the w
    columns and U, bit for bit, on seeded draws of T in 1..24 with and
    without a rate limit, t in 0..T-1 and k in t..T (k = t is the empty
    program). A draw of u_lb above U raises ValueError instead, where k > t."""
    rng = np.random.default_rng(97)
    drawn = 0
    for _ in range(200):
        T = int(rng.integers(1, 25))
        lo = float(rng.uniform(50.0, 150.0))
        hi = lo * float(rng.uniform(1.2, 4.0))
        c = float(rng.uniform(0.1, 0.9) * T * lo)
        rate = c / T * float(rng.uniform(1.0, 2.0)) if rng.random() < 0.5 else None
        inst = Instance(c, rate, T, lo, hi)
        t = int(rng.integers(0, T))
        k = int(rng.integers(t, T + 1))
        prefix = rng.uniform(lo, hi, t)
        x_lb = float(rng.uniform(lo, hi))
        u_lb = float(rng.uniform(0.0, 2 * hi))
        if u_lb > cr.scenario_top(inst, prefix) and k > t:
            with pytest.raises(ValueError, match="empty box"):
                cold_program(inst, prefix, k, x_lb, u_lb)
            continue
        lp, w_cols, top = cold_program(inst, prefix, k, x_lb, u_lb)
        cons, bounds, ref_w_cols, ref_top = scenario_program_rows(inst, prefix, k, x_lb, u_lb)
        for got, want in zip((lp.a, lp.b, lp.lb, lp.ub), le_arrays(cons, bounds)):
            assert got.shape == want.shape and np.array_equal(got, want), (inst, t, k)
        assert np.array_equal(w_cols, ref_w_cols) and top == ref_top
        drawn += k == t
    assert drawn >= 5


def _highs_pi_star(inst):
    """pi* by HiGHS on the printed program of every prefix {1..t}, counting
    only optima with a witness point (scale s > 1e-11), floored at 1."""
    best = 1.0
    for t in range(1, inst.horizon_T + 1):
        found = highs_lfp_max(build_cr_compute(inst, range(1, t + 1)))
        if found is not None and found[1] > 1e-11:
            best = max(best, found[0])
    return best


@pytest.mark.parametrize(
    "n_days, horizon, rate, rate_limit",
    [
        (10, 20, 0.2, None),
        (10, 20, 0.3, None),
        (10, 20, 0.1, 100.0),
        (10, 20, 0.2, 100.0),
        (10, 20, 0.3, 100.0),
        (4, 20, 0.4, 100.0),
        (10, 24, 0.3, None),
    ],
    ids=["vol@0.2", "vol@0.3", "vol-rl@0.1", "vol-rl@0.2", "vol-rl@0.3",
         "vol4-rl@0.4", "vol-t24@0.3"],
)
def test_optimal_cr_matches_highs(n_days, horizon, rate, rate_limit):
    """Volatile seed-7 days, c at `rate` of the mean daily energy, with and
    without a 100 kWh rate limit: pi* equals HiGHS on the printed programs.
    The Charnes-Cooper solve raised DemandOutOfBounds on vol@0.2, vol@0.3
    and vol-t24@0.3, put pi* above HiGHS on vol-rl@0.1 and vol-rl@0.2 and
    hit the simplex iteration cap on vol4-rl@0.4; vol-rl@0.3 pins the HiGHS
    value, which reading x from the tableau once missed (1.555041)."""
    pytest.importorskip("scipy")
    days = synthetic_volatile_profiles(n_days, horizon, 100.0, 400.0, seed=7)
    inst = days.instance(rate * days.avg_daily_energy, rate_limit)
    expected = _highs_pi_star(inst)
    if (n_days, horizon, rate, rate_limit) == (10, 20, 0.3, 100.0):
        assert expected == pytest.approx(1.557084596, abs=1e-8)
    assert optimal_cr(inst).pi_star == pytest.approx(expected, abs=1e-6)


def test_ratio_lower_bound_from_witness(tiny_instance):
    res = optimal_cr(tiny_instance)
    got = ratio_lower_bound(tiny_instance, res.argmax_set, res.witness_profile)
    assert got == pytest.approx(res.pi_star, abs=1e-6)


def test_ratio_lower_bound_fuzz_never_exceeds_pi_star():
    inst = Instance(1.5, None, 3, 1.0, 3.0)
    pi_star = optimal_cr(inst).pi_star
    rng = np.random.default_rng(101)
    for _ in range(300):
        d = DemandProfile(inst, rng.uniform(1.0, 3.0, 3))
        t = int(rng.integers(1, 4))
        lb = ratio_lower_bound(inst, range(1, t + 1), d)
        assert lb <= pi_star + 1e-6


def test_index_set_validation(tiny_instance):
    with pytest.raises(EmptyIndexSet):
        build_cr_compute(tiny_instance, [])
    with pytest.raises(EmptyIndexSet):
        build_cr_compute(tiny_instance, [0, 1])
    with pytest.raises(EmptyIndexSet):
        build_cr_compute(tiny_instance, [3])


def test_zero_capacity_gives_ratio_one():
    inst = Instance(0.0, None, 3, 1.0, 2.0)
    res = optimal_cr(inst)
    assert res.pi_star == 1.0


def test_degenerate_full_coverage_rejected():
    inst = Instance(2.0, None, 2, 1.0, 2.0)  # c == T*d_lb
    with pytest.raises(DegenerateInstance):
        optimal_cr(inst)


def test_rate_cap_below_capacity_gives_ratio_one():
    # T * rate_limit < c: the inventory can never be drained
    inst = Instance(1.5, 0.4, 3, 1.0, 2.0)
    res = optimal_cr(inst)
    assert res.pi_star == 1.0
    assert res.argmax_set == ()


def test_pi_star_monotone_in_capacity():
    values = []
    for c in (0.2, 0.5, 0.8, 1.1, 1.4):
        values.append(optimal_cr(Instance(c, None, 2, 1.0, 2.0)).pi_star)
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_pi_star_monotone_in_bound_width():
    values = []
    for hi in (1.5, 2.0, 2.5, 3.0):
        values.append(optimal_cr(Instance(1.0, None, 2, 1.0, hi)).pi_star)
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_prefixes_up_to_tau_cannot_win(monkeypatch):
    """optimal_cr skips the prefixes t <= tau = floor(c/d_ub): their numerator
    is at most t*d_ub - c <= 0, so their full-form value cannot reach the
    ratio 1 every instance forces (by HiGHS on the printed form);
    optimal_cr starts at tau+1."""
    pytest.importorskip("scipy")
    real_solve_lfp = cr.solve_lfp
    solved = []

    def recording_solve_lfp(lfp, **kwargs):
        solved.append(int(lfp.numerator.sum()))  # the demand block x_1..x_t
        return real_solve_lfp(lfp, **kwargs)

    monkeypatch.setattr(cr, "solve_lfp", recording_solve_lfp)
    rng = np.random.default_rng(53)
    skipped = 0
    for _ in range(40):
        T = int(rng.integers(2, 5))
        lo = float(rng.uniform(0.5, 1.5))
        hi = lo * float(rng.uniform(1.2, 3.0))
        c = float(rng.uniform(0.1, 0.9) * T * lo)
        inst = Instance(c, None, T, lo, hi)
        tau = int(np.floor(c / hi))
        for t in range(1, min(tau, T) + 1):
            found = highs_lfp_max(build_cr_compute(inst, range(1, t + 1)))
            assert found is not None
            assert found[0] <= 1e-9, (inst, t)
            skipped += 1
        solved.clear()
        assert optimal_cr(inst).pi_star >= 1.0
        assert solved == list(range(tau + 1, T + 1)), (inst, tau)
    assert skipped > 0


def _carry_instances(seed, rate_limited, tau_positive, count=10):
    """Random instances that reach optimal_cr's prefix loop, T <= 8, with
    tau = floor(c/d_ub) zero or positive."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        T = int(rng.integers(4, 9))
        lo = float(rng.uniform(0.5, 1.5))
        hi = lo * float(rng.uniform(1.2, 2.0))
        if tau_positive:
            c = float(rng.uniform(hi, 0.95 * T * lo))
        else:
            c = float(rng.uniform(0.1, 0.95) * hi)
        rate = c / T * float(rng.uniform(1.0, 2.0)) if rate_limited else None
        inst = Instance(c, rate, T, lo, hi)
        assert (int(np.floor(c / hi)) > 0) == tau_positive
        yield inst


def _recording_solve_lp(monkeypatch):
    """Patch the solve_lp that solve_lfp calls; returns the list of the
    (LinearProgram, vertex of the tableau it keeps, or None) pairs it
    receives, the vertex taken as the call begins."""
    real_solve_lp = lp_mod.solve_lp
    calls = []

    def recording(lp):
        calls.append((lp, kept_vertex(lp)))
        return real_solve_lp(lp)

    monkeypatch.setattr(lp_mod, "solve_lp", recording)
    return calls


@pytest.mark.parametrize("rate_limited", [False, True], ids=["rate-free", "rate-limited"])
@pytest.mark.parametrize("tau_positive", [False, True], ids=["tau0", "tau-pos"])
def test_carried_basis_is_primal_feasible(monkeypatch, rate_limited, tau_positive):
    """Every kept basis optimal_cr's solves start from, the bases carried
    from prefix to prefix included, is primal feasible on its LP's standard
    form (by the independent dense solve of
    oracles.primal_feasible_values); only the first prefix's first LP is
    solved cold. Every program grown from the prefix before it equals
    the cold build of oracles.cold_program bit for bit, and the carried
    vertex of each grown from a solved prefix holds the new block at its
    water-fill optimum (oracles.seeded_block_gap)."""
    calls = _recording_solve_lp(monkeypatch)
    real_grow, grown = cr.grow_program, []

    def checked_grow(instance, prefix, old, k, x_lb, u_lb):
        program = real_grow(instance, prefix, old, k, x_lb, u_lb)
        assert same_program(program, cold_program(instance, prefix, k, x_lb, u_lb))
        if old._tab is not None:
            grown.append(seeded_block_gap(instance, prefix, u_lb, *program))
        return program

    monkeypatch.setattr(cr, "grow_program", checked_grow)
    warm = 0
    for inst in _carry_instances(71, rate_limited, tau_positive):
        calls.clear()
        optimal_cr(inst)
        assert [basis is None for _lp, basis in calls].count(True) == 1
        assert calls[0][1] is None
        for lp, vertex in calls[1:]:
            assert primal_feasible_values(lp, *vertex) is not None, inst
            warm += 1
    assert warm > 40
    assert len(grown) >= 20 and max(grown) <= 1e-9


@pytest.mark.parametrize("rate_limited", [False, True], ids=["rate-free", "rate-limited"])
def test_carry_basis_keeps_the_vertex(rate_limited):
    """The carried vertex of prefix t+1, grown from prefix t's solved
    program, is prefix t's optimal vertex with x_{t+1} at d_ub and the new
    scenario block at its water-fill optimum there (oracles.seeded_block_gap),
    primal feasible."""
    seeded = 0
    for inst in _carry_instances(73, rate_limited, False, count=4):
        for t in range(1, inst.horizon_T):
            old = prefix_program(inst, t)
            res = solve_lfp(old)
            new = cr.grow_program(inst, (), old.lp, t + 1, inst.demand_lb, 0.0)
            x = vertex_point(new[0])
            assert x is not None, (inst, t)
            kept = np.delete(np.arange(new[0].num_vars), t)[: old.lp.num_vars]
            assert np.allclose(x[kept], res.x, rtol=0.0, atol=1e-9), (inst, t)
            assert seeded_block_gap(inst, (), 0.0, *new) <= 1e-9, (inst, t)
            seeded += 1
    assert seeded >= 12


@pytest.mark.parametrize("rate_limited", [False, True], ids=["rate-free", "rate-limited"])
@pytest.mark.parametrize("u_lb_above", [False, True], ids=["u_lb-below", "u_lb-above"])
def test_grown_block_starts_at_its_water_fill_optimum(rate_limited, u_lb_above):
    """grow_program from a solved cutoff k-1 program, on random instances
    at T <= 10 with an observed prefix and a u_lb below the demands or
    between every scenario's offline peak (that of the all-d_ub day) and
    U: the grown program equals the cold build of oracles.cold_program bit
    for bit, and its kept vertex is primal feasible with block k at its
    water-fill optimum (w_k at its upper bound where u_lb sets the
    benchmark)."""
    rng = np.random.default_rng(67)
    checked = 0
    for _ in range(15):
        T = int(rng.integers(3, 11))
        lo = float(rng.uniform(50.0, 150.0))
        hi = lo * float(rng.uniform(1.2, 3.0))
        c = float(rng.uniform(0.1, 0.9) * T * lo)
        rate = c / T * float(rng.uniform(1.0, 2.0)) if rate_limited else None
        inst = Instance(c, rate, T, lo, hi)
        t = int(rng.integers(0, T - 1))
        prefix = rng.uniform(lo, hi, t)
        x_lb = float(rng.uniform(lo, hi))
        above = float(offline_peak_values(inst, np.full(T, hi)))
        u_lb = float(rng.uniform(above, cr.scenario_top(inst, prefix)) if u_lb_above
                     else rng.uniform(0.0, lo))
        lp, w_cols, top = cold_program(inst, prefix, t + 1, x_lb, u_lb)
        for k in range(t + 2, T + 1):
            lp.objective[: k - 1 - t] = 1.0
            lp.objective[w_cols] = float(rng.uniform(1.0, 2.0))
            assert lp_mod.solve_lp(lp).status == OPTIMAL
            program = cr.grow_program(inst, prefix, lp, k, x_lb, u_lb)
            assert same_program(program, cold_program(inst, prefix, k, x_lb, u_lb))
            assert seeded_block_gap(inst, prefix, u_lb, *program) <= 1e-9, (inst, t, k)
            lp, w_cols, top = program
            checked += 1
    assert checked >= 30


def test_failed_seed_keeps_the_plain_carried_vertex():
    """A seed carry_basis cannot make (a zero pivot element, two pivots
    that do not commute, or a batch that fails after one was made) leaves
    the plain carried vertex: the tableau, basis and sides of a carry with
    no start."""
    inst = Instance(2.0, None, 4, 1.0, 2.0)
    old, _w_cols, _top = cold_program(inst, (), 2, 1.0, 0.0)
    old.objective[:2] = 1.0
    solve_lfp(LfpProblem(old.objective, 0.0, np.zeros(old.num_vars), 1.0, old))
    plain, w_cols, _top = cold_program(inst, (), 3, 1.0, 0.0)
    lp_mod.carry_basis(old, plain, 2)
    row, col = w_cols[-1] - 3, w_cols[-1]  # block 3's budget row and w_3
    # slot j's row is row + j and delta_3j is col + j: delta_32 is 0 in slot
    # 1's row, w_3 meets both slot rows, and delta_31 leaves slot 2's row 0
    for batches in ([([row + 1], [col + 2])],
                    [([row + 1, row + 2], [col + 1, col])],
                    [([row + 1], [col + 1]), ([row + 2], [col + 1])]):
        new = cold_program(inst, (), 3, 1.0, 0.0)[0]
        lp_mod.carry_basis(old, new, 2, lambda point, batches=batches: (batches, [2]))
        assert np.array_equal(new._tab.t, plain._tab.t)
        assert np.array_equal(new._tab.basis, plain._tab.basis)
        assert np.array_equal(new._tab.side, plain._tab.side)


def test_growth_step_rejects_a_cutoff_outside_the_horizon():
    """The growth step takes cutoffs t < k <= T only: grow_program raises
    ValueError for a k past the horizon, a k at or below the prefix, and an
    old program that is not cutoff k-1's, the empty program (cutoff t's,
    with no column and no row) included."""
    inst = Instance(2.0, None, 4, 1.0, 2.0)
    prefix = [1.5, 1.2]
    empty = cr.empty_program()
    assert empty.num_vars == 0 and empty.a.shape == (0, 0)
    for k in (5, 2, 1):
        with pytest.raises(ValueError, match="cutoff"):
            cr.grow_program(inst, prefix, empty, k, 1.0, 0.0)
    with pytest.raises(ValueError, match="not cutoff 3"):
        cr.grow_program(inst, prefix, empty, 4, 1.0, 0.0)
    old = cold_program(inst, prefix, 4, 1.0, 0.0)[0]
    with pytest.raises(ValueError, match="cutoff 5"):
        cr.grow_program(inst, prefix, old, 5, 1.0, 0.0)
    for k in (2, 1):
        with pytest.raises(ValueError, match="cutoff"):
            cr.grow_program(inst, prefix, old, k, 1.0, 0.0)
    with pytest.raises(ValueError, match="not cutoff 3"):
        cr.grow_program(inst, prefix, old, 4, 1.0, 0.0)
    grown = cr.grow_program(inst, prefix, cold_program(inst, prefix, 3, 1.0, 0.0)[0],
                            4, 1.0, 0.0)
    assert same_program(grown, cold_program(inst, prefix, 4, 1.0, 0.0))


@pytest.mark.parametrize("rate_limited", [False, True], ids=["rate-free", "rate-limited"])
@pytest.mark.parametrize("tau_positive", [False, True], ids=["tau0", "tau-pos"])
def test_optimal_cr_matches_cold_prefix_loop(rate_limited, tau_positive):
    """Carrying the basis from prefix to prefix moves neither pi* nor the
    argmax set against the same loop with every prefix started cold."""
    for inst in _carry_instances(79, rate_limited, tau_positive):
        pi_star, argmax_set = cold_prefix_optimal_cr(inst)
        res = optimal_cr(inst)
        assert res.pi_star == pytest.approx(pi_star, rel=0.0, abs=1e-12), inst
        assert res.argmax_set == argmax_set, inst


def test_optimal_cr_t20_solves_one_lp_cold(monkeypatch):
    """On the T=20 volatile day set (seed 7, c at 0.2 of the mean daily
    energy), one optimal_cr call solves exactly one LP cold, and
    pi* and the argmax set equal the cold per-prefix loop's."""
    days = synthetic_volatile_profiles(10, 20, 100.0, 400.0, seed=7)
    inst = days.instance(0.2 * days.avg_daily_energy, None)
    pi_star, argmax_set = cold_prefix_optimal_cr(inst)
    calls = _recording_solve_lp(monkeypatch)
    res = optimal_cr(inst)
    assert [basis is None for _lp, basis in calls].count(True) == 1
    assert len(calls) > 20
    assert res.pi_star == pytest.approx(pi_star, rel=0.0, abs=1e-12)
    assert res.argmax_set == argmax_set


def test_optimal_cr_raises_on_a_non_optimal_step(monkeypatch):
    """A Dinkelbach step whose LP ends UNBOUNDED raises NumericalFailure.
    It used to read as a prefix that cannot beat the best ratio, so on this
    T=10 instance (volatile days, seed 7, c at 0.3 of the mean daily
    energy) optimal_cr dropped its argmax prefix {1..10} and returned a
    lower pi* with argmax set {1..9}, raising nothing."""
    days = synthetic_volatile_profiles(2, 10, 100.0, 400.0, seed=7)
    inst = days.instance(0.3 * days.avg_daily_energy, None)
    assert optimal_cr(inst).argmax_set == tuple(range(1, 11))
    last = prefix_program(inst, 10).lp.num_vars
    real_solve_lp = lp_mod.solve_lp

    def unbounded_on_last_prefix(lp):
        if lp.num_vars == last:
            return LpResult(UNBOUNDED, np.nan, None)
        return real_solve_lp(lp)

    monkeypatch.setattr(lp_mod, "solve_lp", unbounded_on_last_prefix)
    with pytest.raises(NumericalFailure, match="prefix 10"):
        optimal_cr(inst)


def test_phi_bruteforce_tiny_values(tiny_instance):
    # at pi = 1 the policy mirrors the offline discharge on the worst profile
    phi1 = phi_bruteforce(tiny_instance, 1.0, 0.05)
    assert phi1 > tiny_instance.capacity_c
    phi_star = phi_bruteforce(tiny_instance, 4.0 / 3.0, 0.05)
    assert phi_star == pytest.approx(tiny_instance.capacity_c, abs=0.02)


def test_phi_strictly_decreasing_before_zero(tiny_instance):
    pis = np.linspace(1.0, 2.0, 11)
    vals = [phi_bruteforce(tiny_instance, p, 0.05) for p in pis]
    for a, b, pa in zip(vals, vals[1:], pis):
        if a > 1e-9:
            assert b < a - 1e-12, (pa, a, b)
    assert all(v >= 0 for v in vals)


def test_phi_witness_replays_to_total(tiny_instance):
    phi, witness = phi_bruteforce_witness(tiny_instance, 1.1, 0.05)
    assert phi == phi_bruteforce(tiny_instance, 1.1, 0.05)
    from oracles import total_discharge_forced

    assert total_discharge_forced(tiny_instance, 1.1, witness) == pytest.approx(
        phi, abs=1e-9
    )


def test_phi_rejects_large_horizons():
    inst = Instance(2.0, None, 7, 1.0, 2.0)
    with pytest.raises(HorizonTooLarge):
        phi_bruteforce(inst, 1.2, 0.5)
    with pytest.raises(HorizonTooLarge):
        phi_bruteforce_witness(inst, 1.2, 0.5)


def test_phi_witness_rejects_ratio_below_one(tiny_instance):
    with pytest.raises(ValueError):
        phi_bruteforce(tiny_instance, 0.5, 0.05)
    with pytest.raises(ValueError):
        phi_bruteforce_witness(tiny_instance, 0.5, 0.05)


def test_cr_result_shape(tiny_instance):
    res = optimal_cr(tiny_instance)
    assert isinstance(res, CrResult)
    assert res.argmax_set in ((1,), (1, 2))
    assert res.witness_profile is not None
    assert len(res.witness_profile.values) == 2


@pytest.mark.parametrize("rate_limited", [False, True], ids=["rate-free", "rate-limited"])
def test_kept_and_carried_tableaus_match_dense_solve(monkeypatch, rate_limited):
    """After every solve of optimal_cr (T <= 12) the tableau its LP keeps,
    and after every prefix-to-prefix carry the tableau seeded on the next
    prefix's LP, equal B^-1 [A | b] from a fresh dense solve within 1e-9.
    A carry from a prefix that keeps no tableau (the empty program, or a
    prefix at or below tau, grown but not solved) seeds none."""
    real_solve_lp, real_carry = lp_mod.solve_lp, cr.carry_basis
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

    monkeypatch.setattr(lp_mod, "solve_lp", checked_solve_lp)
    monkeypatch.setattr(cr, "carry_basis", checked_carry)
    rng = np.random.default_rng(89)
    for T in (6, 9, 12):
        for _ in range(3):
            lo = float(rng.uniform(50.0, 150.0))
            hi = lo * float(rng.uniform(1.5, 4.0))
            c = float(rng.uniform(0.1, 0.6) * T * lo)
            optimal_cr(Instance(c, c / T * 1.5 if rate_limited else None, T, lo, hi))
    assert len(gaps["carried"]) >= 30
    assert len(gaps["kept"]) >= 60
    assert max(gaps["kept"] + gaps["carried"]) <= 1e-9
