"""Independent brute-force oracles used to cross-check the closed forms.

Everything here is deliberately slow and simple: grid searches and
first-principles recomputations with no shared code paths with the package
internals beyond the public dataclasses and the offline optimum; the
printed programs are solved by HiGHS (scipy, a test-only dependency),
since LinearProgram takes only the one array form the package builds. Some
exceptions reuse package internals on purpose. cold_program is a scenario
program grown with no tableau carried, prefix_program optimal_cr's program
of one prefix built on it, cold_prefix_optimal_cr optimal_cr's search on
those, and certified_ratio_lp_only is the anytime certificate's bisection
with an LP answer for every cutoff at every step, no bound read.

The per-row and per-day references at the end are the loops the array
code replaced: parse_transactions_rows parses a trace one line at a time
into Transaction records, its numbers read by _ascii_float and each record
checked by _transaction_problem, ingest_trace_loop slots one
transaction, one calendar day and one slot at a time in datetime
arithmetic, and the *_actions_loop functions run each baseline on one day,
slot by slot, in Python floats (the receding horizon one window at a time
through window_first_action). run_experiment_loop is the experiment
driver as it ran before every rate was swept in one kernel call: one
instance, offline solve and policy call per (rate, policy) cell, rate by
rate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from peakmin import cr, harness, online
from peakmin.core import EPS_KWH, DemandProfile, check_demands, reference_profile, reference_values
from peakmin.cr import empty_program, grow_program, scenario_top
from peakmin.errors import DegenerateInstance, EmptyTrace, MalformedRecord, PeakMinError
from peakmin.harness import TRACE_HEADER, DayProfileSet
from peakmin.lp import OPTIMAL, LfpProblem, solve_lfp
from peakmin.offline import (
    offline_peak,
    offline_peak_values,
    offline_peaks,
    rate_corrected_cut,
    water_fill_threshold,
)

_GRID_CAP = 2_000_000  # max enumerated profiles in phi_bruteforce


class HorizonTooLarge(PeakMinError):
    """The brute-force grid would enumerate too many profiles."""


def waterfill_oracle(demands, budget: float) -> float:
    """Water level via direct bisection on total-excess(v) = budget."""
    d = np.asarray(demands, dtype=float)
    lo, hi = 0.0, float(d.max())
    if budget <= 0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        excess = np.clip(d - mid, 0.0, None).sum()
        if excess > budget:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def offline_peak_grid(demands, budget: float, rate_limit, step: float) -> float:
    """Exhaustive grid search over feasible discharge schedules (tiny T only)."""
    d = np.asarray(demands, dtype=float)
    T = len(d)
    axes = []
    for t in range(T):
        cap = d[t] if rate_limit is None else min(rate_limit, d[t])
        axes.append(np.arange(0.0, cap + step / 2, step))
    best = float(d.max())
    for combo in itertools.product(*axes):
        sched = np.array(combo)
        if sched.sum() > budget + 1e-12:
            continue
        best = min(best, float((d - sched).max()))
    return best


def reference_peak(prefix, d_lb: float, horizon: int, budget: float) -> float:
    """Offline peak of the observed prefix padded with the demand floor."""
    ref = np.concatenate([np.asarray(prefix, float), np.full(horizon - len(prefix), d_lb)])
    return waterfill_oracle(ref, budget)


def total_discharge_forced(instance, pi: float, profile) -> float:
    """Total discharge the fixed-ratio policy makes on one profile (unclamped)."""
    total = 0.0
    for t in range(1, instance.horizon_T + 1):
        v = reference_peak(profile[:t], instance.demand_lb, instance.horizon_T,
                           instance.capacity_c)
        total += max(0.0, profile[t - 1] - pi * v)
    return total


def cr_ratio_oracle(instance, index_set, grid_step: float) -> float:
    """Worst ratio (sum demands - c) / (sum reference peaks) over a demand grid.

    Only the slots in index_set vary; the trailing slots never enter the
    objective, so the grid runs over prefixes of length max(index_set).
    """
    idx = sorted(index_set)
    depth = idx[-1]
    lo, hi = instance.demand_lb, instance.demand_ub
    c = instance.capacity_c
    values = np.arange(lo, hi + 1e-9, grid_step)
    best = -np.inf
    for prefix in itertools.product(values, repeat=depth):
        num = sum(prefix[i - 1] for i in idx) - c
        den = sum(
            reference_peak(prefix[:i], lo, instance.horizon_T, c) for i in idx
        )
        if den > 1e-12:
            best = max(best, num / den)
    return best


def highs_lfp_max(lfp):
    """max of an LfpProblem by HiGHS on its Charnes-Cooper LP.

    Variables (y, s) with x = y/s: every row a.x (rel) b becomes a.y - b*s
    (rel) 0, every bound lo <= x_j <= hi becomes lo*s <= y_j <= hi*s, and
    the denominator is pinned to 1. Returns (value, s), or None when the
    program is infeasible. Needs scipy, a test-only dependency.
    """
    from scipy.optimize import linprog

    n = len(lfp.numerator)
    ub_rows, eq_rows = [], []
    for coeffs, rel, rhs in lfp.constraints:
        row = np.append(coeffs, -rhs)
        if rel == "<=":
            ub_rows.append(row)
        elif rel == ">=":
            ub_rows.append(-row)
        else:
            eq_rows.append(row)
    for j, (lo, hi) in enumerate(lfp.bounds):
        if lo > 0:
            row = np.zeros(n + 1)
            row[j], row[n] = -1.0, lo
            ub_rows.append(row)
        if hi is not None:
            row = np.zeros(n + 1)
            row[j], row[n] = 1.0, -hi
            ub_rows.append(row)
    eq_rows.append(np.append(lfp.denominator, lfp.denominator_constant))
    eq_rhs = np.zeros(len(eq_rows))
    eq_rhs[-1] = 1.0
    res = linprog(
        -np.append(lfp.numerator, lfp.numerator_constant),
        A_ub=np.array(ub_rows), b_ub=np.zeros(len(ub_rows)),
        A_eq=np.array(eq_rows), b_eq=eq_rhs,
        bounds=(0, None), method="highs",
    )
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return -res.fun, float(res.x[n])


def highs_lp(lp):
    """Maximum of a LinearProgram or PrintedLp by HiGHS, objective constant
    included, or None when it is infeasible. Needs scipy, a test-only
    dependency."""
    from scipy.optimize import linprog

    a_eq = getattr(lp, "a_eq", np.zeros((0, lp.num_vars)))
    if lp.num_vars == 0:  # linprog needs a variable
        return lp.objective_constant
    res = linprog(
        -lp.objective,
        A_ub=lp.a if len(lp.b) else None, b_ub=lp.b if len(lp.b) else None,
        A_eq=a_eq if len(a_eq) else None, b_eq=lp.b_eq if len(a_eq) else None,
        bounds=np.column_stack([lp.lb, lp.ub]), method="highs",
    )
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return -res.fun + lp.objective_constant


def le_arrays(constraints, bounds):
    """(a, b, lb, ub) of printed rows (coeffs, rel, rhs) and bounds
    (lo, hi | None) in the one LinearProgram form: a >= row negated, an ==
    row as a <= row and a >= row, and inf where a column has no upper
    bound."""
    rows, rhs = [], []
    for coeffs, rel, b in constraints:
        if rel in ("<=", "=="):
            rows.append(coeffs)
            rhs.append(b)
        if rel in (">=", "=="):
            rows.append(-np.asarray(coeffs))
            rhs.append(-b)
    lb = np.array([lo for lo, _hi in bounds], dtype=float)
    ub = np.array([np.inf if hi is None else hi for _lo, hi in bounds], dtype=float)
    a = np.array(rows, dtype=float).reshape(len(rows), len(bounds))
    return a, np.array(rhs, dtype=float), lb, ub


def scenario_program_rows(instance, prefix, k: int, x_lb: float, u_lb: float):
    """Cutoff k's scenario program (cr.grow_program's) built row by row, as
    it once was: one np.zeros row per constraint, as (coeffs, "<=", rhs)
    tuples, and (lo, hi | None) bounds. Returns (constraints, bounds, w
    columns, U): the reference the array builder is checked against."""
    T = instance.horizon_T
    c = instance.capacity_c
    lo, hi = instance.demand_lb, instance.demand_ub
    rate = instance.rate_limit
    t = len(prefix)
    top = float(max([instance.demand_ub, *prefix]))

    bounds = [(x_lb, hi)] * (k - t)
    w_cols = []  # first column (w_i) of each scenario block
    for i in range(t + 1, k + 1):
        w_cols.append(len(bounds))
        bounds += [(0.0, top - u_lb)] + [(0.0, rate)] * i
        if i < T:  # aggregate D_i spans T-i tail slots
            bounds.append((0.0, None if rate is None else (T - i) * rate))
    n = len(bounds)

    cons = []
    for i, ofs in zip(range(t + 1, k + 1), w_cols):
        width = i + (1 if i < T else 0)
        budget = np.zeros(n)
        budget[ofs + 1 : ofs + 1 + width] = 1.0
        cons.append((budget, "<=", c))
        for j in range(1, i + 1):  # d_j - delta_ij + w_i <= U, d_j = x_j past t
            row = np.zeros(n)
            row[ofs + j] = -1.0
            row[ofs] = 1.0
            if j <= t:
                cons.append((row, "<=", top - float(prefix[j - 1])))
            else:
                row[j - t - 1] = 1.0
                cons.append((row, "<=", top))
        if i < T:  # aggregated tail: (T-i)*w_i - D_i <= (T-i)*(U - lb)
            tail = T - i
            row = np.zeros(n)
            row[ofs + 1 + i] = -1.0
            row[ofs] = tail
            cons.append((row, "<=", tail * (top - lo)))
    return cons, bounds, np.array(w_cols, dtype=int), top


def cold_program(instance, prefix, k: int, x_lb: float, u_lb: float):
    """Cutoff k's scenario program (lp, w columns, U), cr.grow_program
    folded from cr.empty_program() through cutoffs t+1..k with none of
    them solved, so no tableau is carried; k = t gives the empty program.
    It calls grow_program as imported here, so a test that patches
    cr.grow_program can check what it grows against it."""
    program = empty_program(), np.zeros(0, dtype=int), scenario_top(instance, prefix)
    for i in range(len(prefix) + 1, k + 1):
        program = grow_program(instance, prefix, program[0], i, x_lb, u_lb)
    return program


def prefix_program(instance, t: int):
    """optimal_cr's program of the prefix index set {1..t}, built cold:
    maximize (sum_{i <= t} x_i - c) / (sum_{i <= t} u_i) over
    cold_program with no observed prefix and cutoff t."""
    lp, w_cols, top = cold_program(instance, (), t, instance.demand_lb, 0.0)
    num = np.zeros(lp.num_vars)
    num[:t] = 1.0
    den = np.zeros(lp.num_vars)
    den[w_cols] = -1.0
    return LfpProblem(num, -instance.capacity_c, den, t * top, lp)


def cold_prefix_optimal_cr(instance):
    """(pi*, argmax_set) by optimal_cr's loop over the prefixes t = tau+1..T
    with every prefix's first Dinkelbach step solved cold. For instances
    that reach the loop (0 < c < T*d_lb, inventory bounded)."""
    T = instance.horizon_T
    tau = max(0, min(cr._floor_quotient(instance.capacity_c, instance.demand_ub), T - 1))
    best_val, best_t = -np.inf, None
    for t in range(tau + 1, T + 1):
        res = solve_lfp(prefix_program(instance, t), at_least=best_val)
        assert res.status == OPTIMAL, (t, res.status)
        if res.x is not None:
            best_val, best_t = res.value, t
    return max(best_val, 1.0), tuple(range(1, best_t + 1))


def certified_ratio_lp_only(view, prev_ratio: float, epsilon: float) -> tuple[float, bool]:
    """online._certified_ratio with every cutoff answered by its certificate
    LP (online._future_requirement) at every step: the same bracket, the
    same midpoints and the same binding-cutoff-first order, and no cutoff
    decided by a bound."""
    warm = online._WarmStart()

    def requirement(pi):
        const = online._constant_term(view, pi)
        if const > view.remaining:
            return const
        cutoffs = list(range(view.t + 1, view.instance.horizon_T + 1))
        if warm.binding is not None:
            cutoffs.remove(warm.binding)
            cutoffs.insert(0, warm.binding)
        worst = 0.0
        for kmax in cutoffs:
            worst = max(worst, online._future_requirement(view, pi, kmax, warm))
            if const + worst > view.remaining:
                warm.binding = kmax
                break
        return const + worst

    pi_lb = max(1.0, max(view.running_peak, view.monthly_peak) / view.v_ref)
    if not requirement(pi_lb) > view.remaining:
        return pi_lb, True
    pi_ub = prev_ratio
    if pi_ub <= pi_lb:
        pi_ub = max(pi_lb + epsilon, view.instance.demand_ub / view.v_ref)
    while pi_ub - pi_lb >= epsilon:
        mid = 0.5 * (pi_lb + pi_ub)
        if requirement(mid) > view.remaining:
            pi_lb = mid
        else:
            pi_ub = mid
    return pi_ub, False


@dataclass
class PrintedLp:
    """A maximization as printed, for highs_lp: rows a x <= b and a_eq x == b_eq,
    right-hand sides of any sign, and the box lb <= x <= ub, which
    LinearProgram does not take."""

    objective: np.ndarray
    a: np.ndarray
    b: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    objective_constant: float = 0.0

    @property
    def num_vars(self) -> int:
        return len(self.objective)


def build_aocr_thr(instance, state, pi: float, index_set) -> PrintedLp:
    """Worst-case future-requirement LP in its full printed form.

    state must be mid-slot (d_t observed, delta_t not yet committed). The
    index set must be a scenario cutoff {t+1..k} for some k in [t, T]; the
    empty set yields the constant-term-only program. Variables are u_i, x_i,
    and delta_ij over all j in [T], with no aggregation; the bisection engine
    solves an equivalent reduced encoding.
    """
    if len(state.observed) != len(state.actions) + 1:
        raise ValueError("state must be mid-slot: observe d_t before building")
    T, t = instance.horizon_T, len(state.observed)
    scen = sorted(int(i) for i in index_set)
    if scen != list(range(t + 1, t + 1 + len(scen))) or (scen and scen[-1] > T):
        raise ValueError(
            f"index set {scen} is not a consecutive block t+1..k with k <= {T}"
        )
    demands = [float(d) for d in state.observed]
    v_ref = offline_peak(instance, reference_profile(instance, demands))
    const = max(0.0, demands[-1] - max(pi * v_ref, state.running_peak))
    ns = len(scen)
    n = 2 * ns + ns * T
    rate = np.inf if instance.rate_limit is None else instance.rate_limit
    lb = np.zeros(n)
    lb[ns : 2 * ns] = max(instance.demand_lb, state.running_peak)
    ub = np.full(n, rate)
    ub[:ns] = np.inf
    ub[ns : 2 * ns] = instance.demand_ub

    # per scenario: the budget sum_j delta_ij == c; then one <= row per slot
    # j (j <= t: -u_i - delta_ij <= -d_j, t < j <= i: x_j - u_i - delta_ij
    # <= 0, j > i: -u_i - delta_ij <= -d_lb), the floor -pi u_i <= -running
    # peak and, in monthly mode, -pi u_i <= -monthly peak
    per = T + 1 + (state.monthly_peak > 0)
    a_eq, b_eq = np.zeros((ns, n)), np.full(ns, instance.capacity_c)
    a, b = np.zeros((ns * per, n)), np.zeros(ns * per)
    for si, i in enumerate(scen):
        deltas = 2 * ns + si * T + np.arange(T)
        a_eq[si, deltas] = 1.0
        slots = si * per + np.arange(T)
        a[slots, si] = -1.0
        a[slots, deltas] = -1.0
        a[slots[t:i], ns + np.arange(i - t)] = 1.0
        b[slots[:t]] = -np.array(demands)
        b[slots[i:]] = -instance.demand_lb
        floors = si * per + np.arange(T, per)
        a[floors, si] = -pi
        b[floors] = [-state.running_peak, -state.monthly_peak][: per - T]

    obj = np.zeros(n)
    obj[:ns] = -pi
    obj[ns : 2 * ns] = 1.0
    return PrintedLp(obj, a, b, a_eq, b_eq, lb, ub, objective_constant=const)


def ratio_lower_bound(instance, index_set, demand) -> float:
    """(sum_{i in I} d_i - c) / (sum_{i in I} v(d^i)): a bound any feasible
    target ratio must respect; the optimizer's witness attains it at pi_star."""
    idx = cr._check_index_set(instance, index_set)
    d = demand.values
    num = float(sum(d[i - 1] for i in idx)) - instance.capacity_c
    den = 0.0
    for i in idx:
        den += offline_peak_values(instance, reference_values(instance, d[:i]))
    if den <= EPS_KWH:
        raise DegenerateInstance("offline peaks sum to zero in ratio denominator")
    return num / den


@lru_cache(maxsize=8)
def _phi_table(instance, grid_resolution: float):
    """All grid profiles and their per-prefix offline peaks (oracle precompute)."""
    T = instance.horizon_T
    lo, hi = instance.demand_lb, instance.demand_ub
    steps = int(math.floor((hi - lo) / grid_resolution + 1e-9))
    pts = lo + grid_resolution * np.arange(steps + 1)
    if pts[-1] < hi - 1e-9:
        pts = np.append(pts, hi)
    if len(pts) ** T > _GRID_CAP:
        raise HorizonTooLarge(
            f"{len(pts)}^{T} grid profiles exceed the enumeration cap"
        )
    profiles = np.array(list(itertools.product(pts, repeat=T)), dtype=float)
    n = len(profiles)
    peaks = np.empty((n, T))
    for t in range(1, T + 1):
        ref = np.full((n, T), lo)
        ref[:, :t] = profiles[:, :t]
        peaks[:, t - 1] = offline_peak_values(instance, ref)
    profiles.flags.writeable = False
    peaks.flags.writeable = False
    return profiles, peaks


def phi_bruteforce(instance, pi: float, grid_resolution: float) -> float:
    """Worst-case total discharge of the fixed-ratio policy over grid profiles.

    Exhaustive oracle: enumerates {d_lb, d_lb+h, ..., d_ub}^T and simulates the
    per-slot rule sum_t [d_t - pi * v(d^t)]^+ on every profile. Horizons above
    6 slots are rejected.
    """
    return phi_bruteforce_witness(instance, pi, grid_resolution)[0]


def phi_bruteforce_witness(
    instance, pi: float, grid_resolution: float
) -> tuple[float, np.ndarray]:
    """phi_bruteforce plus one profile attaining the maximum."""
    if instance.horizon_T > 6:
        raise HorizonTooLarge("phi_bruteforce is capped at T <= 6")
    if pi < 1.0 - 1e-12:
        raise ValueError(f"pi must be >= 1, got {pi}")
    profiles, peaks = _phi_table(instance, float(grid_resolution))
    totals = np.clip(profiles - pi * peaks, 0.0, None).sum(axis=1)
    k = int(totals.argmax())
    return float(totals[k]), profiles[k].copy()


def slack_standard_form(lp) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, lb, upper) of a LinearProgram, whose right-hand sides stay >= 0
    once lower bounds are shifted to zero: the columns are the structural
    ones, then one slack per row of lp.a, so a = [A | I] and b = rhs - A lb,
    and upper holds each column's upper bound after the shift (ub - lb, inf
    for a slack). Rows are not equilibrated; that scales B and b alike and
    leaves x_B as is."""
    m = len(lp.b)
    return (np.hstack([lp.a, np.eye(m)]), lp.b - lp.a @ lp.lb, lp.lb,
            np.concatenate([lp.ub - lp.lb, np.full(m, np.inf)]))


def primal_feasible_values(lp, basis, at_upper=(), tol: float = 1e-7) -> np.ndarray | None:
    """Basic values x_B of the vertex (basis, with the columns at_upper at
    their upper bound and every other nonbasic column at its lower bound) on
    slack_standard_form(lp), solved from B x_B = b - A_U u_U with
    np.linalg.solve; None when the vertex is malformed (a column at_upper
    that is basic or has no upper bound) or B is singular, or a basic value
    lies more than tol outside its bounds."""
    a, b, _lb, upper = slack_standard_form(lp)
    basis, at_upper = np.asarray(basis), np.asarray(at_upper, dtype=int)
    m, cols = a.shape
    if basis.shape != (m,) or not (0 <= basis.min(initial=0) and basis.max(initial=0) < cols) or (
        len(set(basis.tolist())) != m
    ) or np.isin(at_upper, basis).any() or not (upper[at_upper] < np.inf).all():
        return None
    try:
        values = np.linalg.solve(a[:, basis], b - a[:, at_upper] @ upper[at_upper])
    except np.linalg.LinAlgError:
        return None
    return values if ((values >= -tol) & (values <= upper[basis] + tol)).all() else None


def kept_vertex(lp) -> tuple[np.ndarray, np.ndarray] | None:
    """(basis, columns at their upper bound) of the tableau lp keeps,
    copied; None when it keeps none."""
    tab = lp._tab
    return None if tab is None else (tab.basis.copy(), np.flatnonzero(tab.side < 0.0))


def kept_tableau_gap(lp) -> float:
    """Largest entry gap between the tableau lp keeps (its rows, and the
    basic values B^-1 (b - A_U u_U) its slack columns imply) and the same
    from one fresh dense solve on lp's own standard-form columns at the same
    vertex."""
    rows, tab = lp._rows, lp._tab
    m, n = rows.shape
    upper = np.where(tab.side[:n] < 0.0, lp.ub - lp.lb, 0.0)
    rhs = lp._rhs - rows @ upper
    full = np.hstack([rows, np.eye(m)])
    kept = np.column_stack([tab.t[:m, : tab.n], tab.t[:m, n : n + m] @ rhs])
    fresh = np.linalg.solve(full[:, tab.basis], np.column_stack([full, rhs]))
    return float(np.abs(kept - fresh).max(initial=0.0))


def vertex_point(lp) -> np.ndarray | None:
    """The structural point x of the vertex lp keeps, its basic values from
    the dense solve of primal_feasible_values; None when that vertex is
    not primal feasible."""
    basis, at_upper = kept_vertex(lp)
    values = primal_feasible_values(lp, basis, at_upper)
    if values is None:
        return None
    _a, _b, lb, upper = slack_standard_form(lp)
    shifted = np.zeros(len(upper))
    shifted[at_upper] = upper[at_upper]
    shifted[basis] = values
    return shifted[: lp.num_vars] + lb


def seeded_block_gap(instance, prefix, u_lb: float, lp, w_cols, top: float) -> float:
    """Largest gap between the last scenario block of the vertex lp keeps
    (cutoff k = t + len(w_cols)), x_k included, and that block's water-fill
    optimum given the vertex's other demands: x_k = d_ub and, with u_k =
    max(u_lb, offline peak of [prefix, x_{t+1..k-1}, d_ub, d_lb, ...]),
    w_k = U - u_k, delta_kj = [d_j - u_k]^+ and D_k = (T-k) [d_lb - u_k]^+;
    inf when the vertex is not primal feasible."""
    x = vertex_point(lp)
    if x is None:
        return math.inf
    prefix = np.asarray(prefix, dtype=float)
    T, t, k = instance.horizon_T, len(prefix), len(prefix) + len(w_cols)
    d = np.concatenate([prefix, x[: k - 1 - t], [instance.demand_ub]])
    u = max(u_lb, float(offline_peak_values(instance, reference_values(instance, d))))
    want = [top - u, *np.maximum(d - u, 0.0)]
    if k < T:
        want.append((T - k) * max(instance.demand_lb - u, 0.0))
    block = x[w_cols[-1] :]
    return float(max(abs(x[k - 1 - t] - instance.demand_ub), np.abs(block - want).max()))


def same_program(got, want) -> bool:
    """Two scenario programs (lp, w columns, U) equal bit for bit: the
    arrays, the objective, the standard form built from them, the w
    columns and U."""
    (lp, w_cols, top), (ref, ref_w_cols, ref_top) = got, want
    pairs = zip((lp.a, lp.b, lp.lb, lp.ub, lp.objective, lp._rows, lp._rhs),
                (ref.a, ref.b, ref.lb, ref.ub, ref.objective, ref._rows, ref._rhs))
    return (all(g.shape == r.shape and np.array_equal(g, r) for g, r in pairs)
            and np.array_equal(w_cols, ref_w_cols) and top == ref_top)


class Transaction(NamedTuple):
    """One charging session, assumed to draw constant power for its duration."""

    start: datetime
    duration_min: float
    energy_kwh: float


def _transaction_problem(start: datetime, duration_min: float, energy_kwh: float) -> str | None:
    """The first transaction rule the session breaks, checked in scalar
    datetime arithmetic; None if it breaks none."""
    if not (math.isfinite(duration_min) and duration_min > 0):
        return f"duration_min must be > 0, got {duration_min}"
    if not (math.isfinite(energy_kwh) and energy_kwh >= 0):
        return f"energy_kwh must be >= 0, got {energy_kwh}"
    if start.utcoffset() is not None:
        return f"start must carry no UTC offset, got {start.isoformat()}"
    try:
        start + timedelta(minutes=duration_min)
    except OverflowError:
        return f"a {duration_min} min session ends past year 9999"
    return None


def _ascii_float(text: str) -> float:
    """float() on ASCII decimal text only: it also reads "1_000" and other
    scripts' digits, which a trace number field must not hold."""
    if any(c == "_" or ord(c) > 127 for c in text):
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def parse_transactions_rows(lines) -> tuple[Transaction, ...]:
    """parse_transactions one line at a time: each data row is checked by
    _transaction_problem and becomes a Transaction, and the first row
    that fails raises MalformedRecord with its line number."""
    if isinstance(lines, str):
        lines = lines.splitlines()
    rows: list[Transaction] = []
    saw_header = False
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        cells = [c.strip() for c in text.split(",")]
        if not saw_header:
            if tuple(c.lower() for c in cells) != TRACE_HEADER:
                raise MalformedRecord(
                    f"line {lineno}: expected header {','.join(TRACE_HEADER)}, got {text!r}"
                )
            saw_header = True
            continue
        if len(cells) != 3:
            raise MalformedRecord(f"line {lineno}: expected 3 fields, got {len(cells)}")
        try:
            fields = datetime.fromisoformat(cells[0]), _ascii_float(cells[1]), _ascii_float(cells[2])
        except ValueError as exc:
            raise MalformedRecord(f"line {lineno}: {exc}") from None
        problem = _transaction_problem(*fields)
        if problem is not None:
            raise MalformedRecord(f"line {lineno}: {problem}")
        rows.append(Transaction(*fields))
    if not saw_header:
        raise MalformedRecord("empty input: the header row is required")
    if not rows:
        raise EmptyTrace("no transactions after the header")
    return tuple(rows)


def ingest_trace_loop(transactions, config) -> DayProfileSet:
    """ingest_trace one transaction, calendar day and slot at a time, in
    datetime arithmetic; days where some slot gets nothing are dropped."""
    horizon = config.horizon
    window_open_time = datetime.strptime(config.on_peak_start, "%H:%M").time()
    slot = timedelta(minutes=config.slot_minutes)
    buckets = {}
    for txn in transactions:
        t0 = txn.start
        t1 = t0 + timedelta(minutes=txn.duration_min)
        day = t0.date()
        while day <= t1.date():
            window_open = datetime.combine(day, window_open_time)
            for k in range(horizon):
                s0 = window_open + k * slot
                s1 = s0 + slot
                overlap = (min(t1, s1) - max(t0, s0)).total_seconds() / 60.0
                if overlap > 0:
                    row = buckets.setdefault(day, np.zeros(horizon))
                    row[k] += txn.energy_kwh * overlap / txn.duration_min
            day = day + timedelta(days=1)
    kept = {day: row * config.scale_factor for day, row in sorted(buckets.items())}
    kept = {day: row for day, row in kept.items() if not (row <= 0).any()}
    values = np.asarray(list(kept.values()))
    return DayProfileSet(tuple(day.isoformat() for day in kept), values, config)


def _greedy_actions_loop(instance, values, wanted) -> list:
    remaining = instance.capacity_c
    actions = []
    for d_t, w_t in zip(values, wanted):
        delta = min(w_t, instance.slot_cap(float(d_t)), remaining)
        actions.append(delta)
        remaining -= delta
    return actions


def threshold_actions_loop(instance, values, threshold: float) -> list:
    return _greedy_actions_loop(instance, values, [max(0.0, float(d) - threshold) for d in values])


def equal_discharge_actions_loop(instance, values) -> list:
    return _greedy_actions_loop(instance, values, [instance.capacity_c / instance.horizon_T] * len(values))


def equal_ratio_actions_loop(instance, values, capacity_rate: float) -> list:
    return _greedy_actions_loop(instance, values, [capacity_rate * float(d) for d in values])


def window_first_action(instance, window: np.ndarray, budget: float) -> float:
    """First slot of the exact offline solution on a window profile, granted
    the whole budget capped at what its slots can absorb."""
    caps = window if instance.rate_limit is None else np.minimum(window, instance.rate_limit)
    spendable = min(budget, float(caps.sum()))
    v = water_fill_threshold(window, spendable)
    first = float(rate_corrected_cut(window, v, instance.rate_limit)[0])
    return min(first, instance.slot_cap(float(window[0])), budget)


def rhc_actions_loop(instance, values, config, clairvoyant: bool = False,
                     future=None) -> list:
    """Receding horizon on one day: slot t solves [d_t, f, ..., f], or
    [d_t, future_{t+1}, ...] given a future row (the true demands when
    clairvoyant), and commits the first action."""
    horizon = instance.horizon_T
    window = config.resolve_window(horizon)
    if clairvoyant:
        future = values
    fill = config.future_value(instance)
    remaining = instance.capacity_c
    actions = []
    for t in range(horizon):
        length = min(window, horizon - t)
        win = np.full(length, fill) if future is None else np.array(future[t : t + length],
                                                                     dtype=float)
        win[0] = values[t]
        delta = window_first_action(instance, win, remaining)
        actions.append(delta)
        remaining -= delta
    return actions


def _cell_peaks_loop(algorithm, instance, values, offline, settings) -> np.ndarray:
    if algorithm == harness.ALGO_OFFLINE:
        return offline
    if algorithm == harness.ALGO_THR_OFFLINE_MEAN:
        algorithm = harness.ALGO_THR
        settings = settings._replace(threshold=float(np.mean(offline)))
    elif algorithm == harness.ALGO_THR_MID:
        algorithm = harness.ALGO_THR
        settings = settings._replace(threshold=0.5 * (instance.demand_lb + instance.demand_ub))
    run = harness.POLICY_RUNNERS[algorithm]
    return np.array([run(instance, DemandProfile(instance, row), settings).final_peak
                     for row in values])


def run_experiment_loop(config) -> tuple:
    """run_experiment's cells and monthly rows, rate by rate and one policy
    call per (rate, policy) cell: (rate, algorithm, final peaks, offline
    peaks) per cell, then the MonthlyComparison rows."""
    ps = config.profiles
    rate_limit = (None if config.rate_limit_fraction is None
                  else config.rate_limit_fraction * ps.demand_ub)
    needs_pi = config.monthly or any(a in harness._RATIO_ALGOS for a in config.algorithms)
    cells, monthly = [], []
    for rate in config.capacity_rates:
        instance = ps.instance(rate * ps.avg_daily_energy, rate_limit)
        values = check_demands(instance, ps.day_values)
        offline = offline_peaks(instance, values)
        settings = harness.RunSettings(
            pi=cr.optimal_cr(instance).pi_star if needs_pi else None,
            epsilon=config.epsilon,
            ratio=min(1.0, instance.capacity_c / ps.avg_daily_energy),
            window=config.rhc_window,
        )
        finals = {}
        for algorithm in config.algorithms:
            finals[algorithm] = _cell_peaks_loop(algorithm, instance, values, offline, settings)
            cells.append((rate, algorithm, finals[algorithm], offline))
        if config.monthly:
            if harness.ALGO_ANYTIME not in finals:
                finals[harness.ALGO_ANYTIME] = _cell_peaks_loop(
                    harness.ALGO_ANYTIME, instance, values, offline, settings)
            for month, idxs in ps.monthly_groups().items():
                days = list(idxs)
                monthly.append(harness.MonthlyComparison(
                    month=month, capacity_rate=rate,
                    independent_peak=float(finals[harness.ALGO_ANYTIME][days].max()),
                    threaded_peak=harness._threaded_month_peak(
                        instance, values[days], settings.pi, config.epsilon),
                ))
    return cells, monthly
