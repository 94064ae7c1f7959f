"""Optimal competitive ratio for the online peak-minimization policy family.

The worst-case ratio over demand profiles that force a given future index set
is a linear-fractional program; the optimal ratio is the maximum of that
program over the prefix index sets {1..t} for t from floor(c/d_ub)+1 to T.
scenario_program builds that program once, for an empty prefix here and,
with the observed prefix held fixed, for the anytime certificate in online.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .core import EPS_KWH, DemandProfile, Instance, reference_values
from .errors import DegenerateInstance, EmptyIndexSet, NumericalFailure
from .lp import OPTIMAL, LfpProblem, LinearProgram, carry_basis, solve_lfp
# not called here; the benchmark's tracer wraps this cr attribute by name
from .offline import offline_peak_values  # noqa: F401


@dataclass(frozen=True)
class CrResult:
    """Optimal ratio with the index set and demand profile attaining it."""

    pi_star: float
    argmax_set: tuple[int, ...]
    witness_profile: DemandProfile | None


def _check_index_set(instance: Instance, index_set) -> tuple[int, ...]:
    idx = tuple(sorted(int(i) for i in index_set))
    if not idx:
        raise EmptyIndexSet("index set must be nonempty")
    if idx[0] < 1 or idx[-1] > instance.horizon_T or len(set(idx)) != len(idx):
        raise EmptyIndexSet(f"index set {idx} not a subset of 1..{instance.horizon_T}")
    return idx


@dataclass(frozen=True)
class PrintedLfp:
    """A linear-fractional program as printed: rows (coeffs, rel, rhs) with
    rel "<=" or "==", and bounds (lo, hi), hi None where there is none.
    Nothing in peakmin solves it."""

    numerator: np.ndarray
    numerator_constant: float
    denominator: np.ndarray
    denominator_constant: float
    constraints: list
    bounds: list


def build_cr_compute(instance: Instance, index_set) -> PrintedLfp:
    """Worst-case-ratio LFP over scenarios in the given index set, as printed.

    This record is for independent solvers (the tests' and the benchmark's
    HiGHS references) only. optimal_cr solves the equivalent
    scenario_program instead.

    Variables: x_1..x_T (demand profile), u_1..u_T (offline values of the
    truncated scenarios), delta_ij (offline discharge of scenario i in slot j).
    maximize (sum_{i in I} x_i - c) / (sum_{i in I} u_i)
      s.t.  sum_j delta_ij = c                 for all i
            x_j - delta_ij <= u_i              for j <= i
            d_lb - delta_ij <= u_i             for i < j
            d_lb <= x <= d_ub, u >= 0, 0 <= delta_ij <= rate_limit
    """
    idx = _check_index_set(instance, index_set)
    T = instance.horizon_T
    c = instance.capacity_c
    lo, hi = instance.demand_lb, instance.demand_ub
    n = 2 * T + T * T  # x block, u block, then delta_i1..delta_iT per i

    cons = []
    for i in range(1, T + 1):
        d0 = 2 * T + (i - 1) * T  # column of delta_i1
        row = np.zeros(n)
        row[d0 : d0 + T] = 1.0
        cons.append((row, "==", c))
        for j in range(1, T + 1):  # x_j (j <= i) or d_lb (j > i) - delta_ij <= u_i
            row = np.zeros(n)
            row[d0 + j - 1] = -1.0
            row[T + i - 1] = -1.0
            if j <= i:
                row[j - 1] = 1.0
                cons.append((row, "<=", 0.0))
            else:
                cons.append((row, "<=", -lo))
    bounds = [(lo, hi)] * T + [(0.0, None)] * T + [(0.0, instance.rate_limit)] * (T * T)
    num = np.zeros(n)
    den = np.zeros(n)
    for i in idx:
        num[i - 1] = 1.0
        den[T + i - 1] = 1.0
    return PrintedLfp(num, -c, den, 0.0, cons, bounds)


def scenario_program(
    instance: Instance, prefix, k: int, x_lb: float, u_lb: float
) -> tuple[LinearProgram, np.ndarray, float]:
    """Worst-case scenario program over the scenarios after a fixed prefix.

    The demands d_1..d_t of prefix are fixed (t = len(prefix), empty for
    optimal_cr) and the adversary picks x_{t+1}..x_k in [x_lb, d_ub].
    Scenario i in t+1..k stops worsening at slot i, so its offline benchmark
    u_i >= u_lb sees [d_1..d_t, x_{t+1}..x_i, lb, ..., lb] with the inventory
    spent by delta_ij. This is the printed program with the inert parts
    removed: demand slots past k only see their box and are dropped, and the
    identical tail rows d_lb - delta_ij <= u_i of a scenario collapse into
    one aggregate D_i with (T-i)*d_lb - D_i <= (T-i)*u_i, which is exact
    because an equal split of the tail is optimal. Tests check it against
    build_cr_compute and the full future-requirement form.

    Two rewrites put it in the one form LinearProgram takes, rows a x <= b
    with b - a lb >= 0, so the all-slack basis is feasible. The budget
    sum_j delta_ij = c becomes <= c: exact while c <= T * rate (see
    inventory_unbounded), because raising a delta only loosens the other
    rows. The benchmark is u_i = U - w_i with 0 <= w_i <= U - u_lb and
    U = max(d_ub, u_lb, prefix): exact because a minimized u_i never
    exceeds U.

    Columns: x_{t+1}..x_k, then per scenario the block w_i, delta_i1..
    delta_ii, D_i (no D_T); rows per scenario: the budget, one row per slot
    j <= i, the tail. A block has as many rows as columns, so the arrays are
    sized up front and filled block by block. Returns (the program with a
    zero objective to maximize, for the caller to write; the w columns; U).
    """
    T = instance.horizon_T
    rate = math.inf if instance.rate_limit is None else instance.rate_limit
    prefix = np.asarray(prefix, dtype=float)
    t = len(prefix)
    top = scenario_top(instance, prefix, u_lb)
    sizes = [i + 1 + (i < T) for i in range(t + 1, k + 1)]
    m = sum(sizes)
    n = k - t + m
    a, b = np.zeros((m, n)), np.empty(m)
    lb, ub = np.zeros(n), np.full(n, rate)
    lb[: k - t], ub[: k - t] = x_lb, instance.demand_ub
    w_cols = k - t + np.cumsum([0] + sizes, dtype=int)[:-1]
    for i, size, ofs in zip(range(t + 1, k + 1), sizes, w_cols):
        r = ofs - (k - t)  # the block's first row: its budget
        a[r, ofs + 1 : ofs + size] = 1.0
        b[r] = instance.capacity_c
        # slot j: d_j - delta_ij + w_i <= U, with d_j = x_j past t
        slots = r + 1 + np.arange(i)
        a[slots, ofs] = 1.0
        a[slots, ofs + 1 + np.arange(i)] = -1.0
        a[slots[t:], np.arange(i - t)] = 1.0
        b[slots[:t]] = top - prefix
        b[slots[t:]] = top
        ub[ofs] = top - u_lb
        if i < T:  # aggregated tail: (T-i)*w_i - D_i <= (T-i)*(U - lb)
            a[r + size - 1, ofs] = T - i
            a[r + size - 1, ofs + size - 1] = -1.0
            b[r + size - 1] = (T - i) * (top - instance.demand_lb)
            ub[ofs + size - 1] = (T - i) * rate
    return LinearProgram(np.zeros(n), a, b, lb, ub), w_cols, top


def scenario_top(instance: Instance, prefix, u_lb: float) -> float:
    """scenario_program's U = max(d_ub, u_lb, prefix)."""
    return float(max(instance.demand_ub, u_lb, *prefix))


def inventory_unbounded(instance: Instance) -> bool:
    """True when the rate cap alone keeps total discharge below c: the
    inventory never binds, ratio 1 is achievable, no scenario imposes a
    requirement, and scenario_program does not apply."""
    rate = instance.rate_limit
    return rate is not None and instance.capacity_c > instance.horizon_T * rate + EPS_KWH


def _prefix_program(instance: Instance, t: int) -> LfpProblem:
    """Worst-case-ratio program of the prefix index set {1..t}, reduced.

    maximize (sum_{i <= t} x_i - c) / (sum_{i <= t} u_i) over the scenario
    program with no observed prefix and cutoff t.
    """
    lp, w_cols, top = scenario_program(instance, (), t, instance.demand_lb, 0.0)
    num = np.zeros(lp.num_vars)
    num[:t] = 1.0
    den = np.zeros(lp.num_vars)
    den[w_cols] = -1.0
    return LfpProblem(num, -instance.capacity_c, den, t * top, lp)


def _floor_quotient(c: float, d_ub: float) -> int:
    """floor(c/d_ub) computed on decimal strings. A checked Instance has
    c <= T d_ub + EPS_KWH, so the quotient is about T at most, which fits
    the 28-digit decimal context for any horizon whose LPs can be built."""
    return int(Decimal(str(c)) // Decimal(str(d_ub)))


def optimal_cr(instance: Instance) -> CrResult:
    """Maximum of the worst-case-ratio program over prefix candidate sets.

    Candidates are t = tau+1..T with tau = floor(c/d_ub): at t <= tau the
    numerator is at most t*d_ub - c <= 0, so those prefixes cannot beat the
    ratio 1 the all-d_lb profile forces. The best ratio so far is carried
    into the next prefix's Dinkelbach solve, which returns at once when the
    prefix cannot beat it by RATIO_TOL, so ties break toward smaller t. So
    is the tableau each prefix's last LP keeps, mapped onto the next
    prefix's program by lp.carry_basis: only the first prefix starts cold,
    and no prefix refactorizes its basis. The denominator is positive, as
    solve_lfp requires: any feasible point has u_i >= (sum_j p_j - c)/T >=
    (T*d_lb - c)/T > 0 under the c < T*d_lb precondition below. Every
    prefix program is feasible and bounded, so a step LP that ends other
    than optimal raises NumericalFailure instead of dropping its prefix.
    """
    T = instance.horizon_T
    c = instance.capacity_c
    if c >= T * instance.demand_lb - EPS_KWH:
        raise DegenerateInstance(
            f"c = {c} reaches T*d_lb = {T * instance.demand_lb}; offline peak can "
            "hit zero and ratios are undefined"
        )
    if c <= EPS_KWH:
        # no storage: every policy is optimal, ratio 1; scenario {1} at the
        # all-d_ub profile attains (d_ub - 0)/v(d^1) = 1 exactly
        witness = DemandProfile(instance, np.full(T, instance.demand_ub))
        return CrResult(1.0, (1,), witness)
    if inventory_unbounded(instance):
        return CrResult(1.0, (), None)

    tau = max(0, min(_floor_quotient(c, instance.demand_ub), T - 1))
    best_val, best_t, best_x = -math.inf, None, None
    prev = None
    for t in range(tau + 1, T + 1):
        program = _prefix_program(instance, t)
        if prev is not None:
            carry_basis(prev.lp, program.lp, t - 1)
        res = solve_lfp(program, at_least=best_val)
        if res.status != OPTIMAL:
            raise NumericalFailure(f"prefix {t}: a Dinkelbach step's LP ended {res.status}")
        if res.x is not None:
            best_val, best_t, best_x = res.value, t, res.x[:t]  # the demand block
        prev = program
    witness = DemandProfile(instance, reference_values(instance, best_x))
    # ratios below 1 are LP noise: the all-d_lb profile already forces 1
    return CrResult(
        pi_star=max(best_val, 1.0),
        argmax_set=tuple(range(1, best_t + 1)),
        witness_profile=witness,
    )
