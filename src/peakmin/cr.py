"""Optimal competitive ratio for the online peak-minimization policy family.

The worst-case ratio over demand profiles that force a given future index set
is a linear-fractional program; the optimal ratio is the maximum of that
program over the prefix index sets {1..t} for t from floor(c/d_ub)+1 to T.
grow_program builds that program, for an empty prefix here and, with the
observed prefix held fixed, for the anytime certificate in online. Every
chain of programs (prefix t-1 to t here, cutoff k-1 to k there) starts
from empty_program() and grows each program from the one before, starting
the new block at its water-fill optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .core import EPS_KWH, DemandProfile, Instance, reference_values
from .errors import DegenerateInstance, EmptyIndexSet, NumericalFailure
from .lp import OPTIMAL, LfpProblem, LinearProgram, carry_basis, solve_lfp
from .offline import offline_peak_values


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
    HiGHS references) only. optimal_cr solves the equivalent reduced
    program grow_program builds instead.

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


def empty_program() -> LinearProgram:
    """The scenario program of no scenario, with no column and no row:
    every chain of scenario programs grows from it."""
    return LinearProgram(np.zeros(0), np.zeros((0, 0)), np.zeros(0), np.zeros(0), np.zeros(0))


def grow_program(
    instance: Instance, prefix, old: LinearProgram, k: int, x_lb: float, u_lb: float
) -> tuple[LinearProgram, np.ndarray, float]:
    """Worst-case scenario program over the scenarios t+1..k after a fixed
    prefix, grown from old, cutoff k-1's program (empty_program() for
    k = t+1), by one _grown step.

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
    U = scenario_top(instance, prefix): exact because a minimized u_i never
    exceeds U. A u_lb above U empties the w boxes, and LinearProgram raises
    ValueError.

    Columns: x_{t+1}..x_k, then per scenario the block w_i, delta_i1..
    delta_ii, D_i (no D_T); rows per scenario: the budget, one row per slot
    j <= i, the tail. old's objective and w upper bounds may have moved
    since it was grown: every w column's upper bound is set to U - u_lb,
    and the objective is zero, to maximize, for the caller to write. A k
    outside t < k <= T, or an old of another shape than cutoff k-1's,
    raises ValueError. Returns (the program; the w columns; U).

    When old keeps a tableau, lp.carry_basis carries its vertex and starts
    block k at that vertex's best answer (_block_start): x_k at d_ub and
    the block at the water-fill optimum of its scenario, so the simplex
    starts where only the old blocks can still improve."""
    prefix = np.asarray(prefix, dtype=float)
    t = len(prefix)
    _check_cutoff(instance, t, k)
    top = scenario_top(instance, prefix)
    w_cols = _w_columns(instance, t, k)
    if old.a.shape != (w_cols[-1] - (k - t), w_cols[-1] - 1):
        raise ValueError(f"old is not cutoff {k - 1}'s program: shape {old.a.shape}")
    a, b, lb, ub = _grown(instance, prefix, (old.a, old.b, old.lb, old.ub), k, x_lb, u_lb, top)
    ub[w_cols] = top - u_lb
    lp = LinearProgram(np.zeros(len(lb)), a, b, lb, ub)
    carry_basis(old, lp, k - 1 - t,
                lambda point: _block_start(instance, prefix, k, u_lb, point, w_cols[-1]))
    return lp, w_cols, top


def _check_cutoff(instance: Instance, t: int, k: int) -> None:
    if not t < k <= instance.horizon_T:
        raise ValueError(f"cutoff {k} outside {t + 1}..{instance.horizon_T} after {t} fixed slots")


def _block_size(instance: Instance, i: int) -> int:
    """Columns (and rows) of scenario block i: w_i, i deltas and, before
    the horizon, D_i."""
    return i + 1 + (i < instance.horizon_T)


def _w_columns(instance: Instance, t: int, k: int) -> np.ndarray:
    """The w column of each block of cutoff k's program: the first after
    the k - t demand columns and the blocks before it."""
    sizes = [_block_size(instance, i) for i in range(t + 1, k + 1)]
    return k - t + np.cumsum([0] + sizes, dtype=int)[:-1]


def _grown(instance: Instance, prefix: np.ndarray, arrays, k: int, x_lb: float, u_lb: float,
           top: float):
    """The arrays (a, b, lb, ub) of cutoff k's program from arrays, cutoff
    k-1's: x_k inserted after the demand block, then block k appended, the
    one place a block is written."""
    old_a, old_b, old_lb, old_ub = arrays
    T, t = instance.horizon_T, len(prefix)
    rate = math.inf if instance.rate_limit is None else instance.rate_limit
    x, size = k - 1 - t, _block_size(instance, k)
    # the block's first row (its budget) and column (w_k)
    r, col = old_a.shape[0], old_a.shape[1] + 1
    a = np.zeros((r + size, col + size))
    a[:r, :x], a[:r, x + 1 : col] = old_a[:, :x], old_a[:, x:]
    b = np.concatenate([old_b, np.empty(size)])
    lb = np.concatenate([old_lb[:x], [x_lb], old_lb[x:], np.zeros(size)])
    ub = np.concatenate([old_ub[:x], [instance.demand_ub], old_ub[x:], [top - u_lb],
                         np.full(size - 1, rate)])
    a[r, col + 1 : col + size] = 1.0
    b[r] = instance.capacity_c
    # slot j: d_j - delta_kj + w_k <= U, with d_j = x_j past t
    slots = r + 1 + np.arange(k)
    a[slots, col] = 1.0
    a[slots, col + 1 + np.arange(k)] = -1.0
    a[slots[t:], np.arange(k - t)] = 1.0
    b[slots[:t]] = top - prefix
    b[slots[t:]] = top
    if k < T:  # aggregated tail: (T-k)*w_k - D_k <= (T-k)*(U - lb)
        a[r + size - 1, col] = T - k
        a[r + size - 1, col + size - 1] = -1.0
        b[r + size - 1] = (T - k) * (top - instance.demand_lb)
        ub[col + size - 1] = (T - k) * rate
    return a, b, lb, ub


def _block_start(instance: Instance, prefix: np.ndarray, k: int, u_lb: float,
                 point: np.ndarray, col: int):
    """Block k's best answer at point, the carried vertex of its grown
    program, as lp.carry_basis seeds it: (batches, at_upper), the pivots
    in two batches of (rows, columns), and the columns to put at their
    upper bounds; col is w_k's column.

    x_k sits at d_ub, and scenario k's benchmark is u_k = max(u_lb, the
    offline peak of [prefix, x_{t+1..k-1} as point holds them, d_ub, d_lb,
    ..., d_lb]), rate-corrected. Each delta_kj of a slot above u_k is basic
    in its slot row, at d_j - u_k, and D_k in the tail row when d_lb > u_k:
    each of these columns meets one of these rows, so they are one batch.
    Then w_k = U - u_k is basic when u_k > u_lb: in the budget row when the
    budget sets the level, else (the rate cap does: u_k = max_j d_j - rate)
    in the row of a capped slot, whose deltas sit at their upper bound
    instead. At u_k = u_lb it sits at its upper bound. Every other row
    keeps its slack basic."""
    T, t = instance.horizon_T, len(prefix)
    rate = math.inf if instance.rate_limit is None else instance.rate_limit
    row = col - (k - t)  # the budget row; slot j's is row + j, the tail's row + k + 1
    d = np.concatenate([prefix, point[: k - 1 - t], [instance.demand_ub]])
    u = max(u_lb, float(offline_peak_values(instance, reference_values(instance, d))))
    capped = (d - u >= rate - EPS_KWH) & (u > u_lb)
    basic = np.flatnonzero((d > u) & ~capped) + 1  # the slots of the basic deltas
    if k < T and instance.demand_lb > u:
        basic = np.append(basic, k + 1)  # D_k, in the tail row
    batches = [(row + basic, col + basic)]
    at_upper = [k - 1 - t, *(col + 1 + np.flatnonzero(capped))]
    if u <= u_lb:
        at_upper.append(col)
    else:
        batches.append(([row + 1 + np.argmax(capped) if capped.any() else row], [col]))
    return batches, at_upper


def scenario_top(instance: Instance, prefix) -> float:
    """The U of every scenario program after prefix, max(d_ub, prefix): no
    benchmark u_i exceeds it, and it does not depend on the ratio."""
    return float(max([instance.demand_ub, *prefix]))


def inventory_unbounded(instance: Instance) -> bool:
    """True when the rate cap alone keeps total discharge below c: the
    inventory never binds, ratio 1 is achievable, no scenario imposes a
    requirement, and no scenario program applies."""
    rate = instance.rate_limit
    return rate is not None and instance.capacity_c > instance.horizon_T * rate + EPS_KWH


def _floor_quotient(c: float, d_ub: float) -> int:
    """floor(c/d_ub) computed on decimal strings. A checked Instance has
    c <= T d_ub + EPS_KWH, so the quotient is about T at most, which fits
    the 28-digit decimal context for any horizon whose LPs can be built."""
    return int(Decimal(str(c)) // Decimal(str(d_ub)))


def optimal_cr(instance: Instance) -> CrResult:
    """Maximum of the worst-case-ratio program over prefix candidate sets.

    Prefix t's program, reduced, is maximize (sum_{i <= t} x_i - c) /
    (sum_{i <= t} u_i) over the scenario program with no observed prefix
    and cutoff t. Candidates are t = tau+1..T with tau = floor(c/d_ub): at
    t <= tau the numerator is at most t*d_ub - c <= 0, so those prefixes
    cannot beat the ratio 1 the all-d_lb profile forces, and their programs
    are grown but not solved. The best ratio so far is carried into the
    next prefix's Dinkelbach solve, which returns at once when the prefix
    cannot beat it by RATIO_TOL, so ties break toward smaller t. Each
    prefix's program is grown from the one before by grow_program, which
    carries the tableau that prefix's last LP keeps and starts the new
    scenario block at its water-fill optimum: only the first candidate
    starts cold, and no prefix refactorizes its basis. The denominator is
    positive, as solve_lfp requires: any feasible point has u_i >=
    (sum_j p_j - c)/T >= (T*d_lb - c)/T > 0 under the c < T*d_lb
    precondition below. Every prefix program is feasible and bounded, so a
    step LP that ends other than optimal raises NumericalFailure instead of
    dropping its prefix.
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
    lp = empty_program()
    for t in range(1, T + 1):
        lp, w_cols, top = grow_program(instance, (), lp, t, instance.demand_lb, 0.0)
        if t <= tau:
            continue
        num = np.zeros(lp.num_vars)
        num[:t] = 1.0
        den = np.zeros(lp.num_vars)
        den[w_cols] = -1.0
        res = solve_lfp(LfpProblem(num, -c, den, t * top, lp), at_least=best_val)
        if res.status != OPTIMAL:
            raise NumericalFailure(f"prefix {t}: a Dinkelbach step's LP ended {res.status}")
        if res.x is not None:
            best_val, best_t, best_x = res.value, t, res.x[:t]  # the demand block
    witness = DemandProfile(instance, reference_values(instance, best_x))
    # ratios below 1 are LP noise: the all-d_lb profile already forces 1
    return CrResult(
        pi_star=max(best_val, 1.0),
        argmax_set=tuple(range(1, best_t + 1)),
        witness_profile=witness,
    )
