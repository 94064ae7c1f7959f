"""Independent references the output checks compare against.

Neither reference shares a numerical code path with the package: the water
level is found by bisection instead of the package's sort-and-breakpoint
formula, and pi* is solved by HiGHS (through scipy) instead of the package's
dense simplex. scipy is a benchmark-only dependency, imported lazily so that
it stays out of set-up time and out of the timed region.
"""

from __future__ import annotations

import math
from decimal import Decimal

import numpy as np


def water_levels(days: np.ndarray, budget: float) -> np.ndarray:
    """Row-wise level v with sum_t max(d_t - v, 0) = budget, by bisection.

    Without a rate limit this level is the offline-optimal peak of the day.
    """
    days = np.asarray(days, dtype=float)
    lo = np.zeros(len(days))
    hi = days.max(axis=1)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        above = np.clip(days - mid[:, None], 0.0, None).sum(axis=1) > budget
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
        if (hi - lo <= 1e-15 * hi).all():
            break
    return 0.5 * (lo + hi)


def _charnes_cooper_max(lfp) -> tuple[float, float] | None:
    """max (n.x + n0)/(d.x + d0) of an LfpProblem via its Charnes-Cooper LP.

    Returns (value, scale s), or None when the program is infeasible.
    """
    from scipy import sparse
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
        A_ub=sparse.csr_matrix(np.array(ub_rows)), b_ub=np.zeros(len(ub_rows)),
        A_eq=sparse.csr_matrix(np.array(eq_rows)), b_eq=eq_rhs,
        bounds=(0, None), method="highs",
    )
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"HiGHS reference failed: {res.message}")
    return -res.fun, float(res.x[n])


def highs_pi_star(cr, instance) -> float:
    """pi* over the same prefix candidates optimal_cr uses, solved by HiGHS.

    Each candidate t is the full-form program cr.build_cr_compute(instance,
    {1..t}); as in optimal_cr, a candidate counts only when its optimum has a
    witness point (scale s > 1e-11), and the result is floored at 1.
    """
    T, c, ub = instance.horizon_T, instance.capacity_c, instance.demand_ub
    if instance.rate_limit is not None and c > T * instance.rate_limit:
        return 1.0
    tau = max(0, min(int(Decimal(str(c)) // Decimal(str(ub))), T - 1))
    best = -math.inf
    for t in sorted({max(tau, 1)} | set(range(tau + 1, T + 1))):
        found = _charnes_cooper_max(cr.build_cr_compute(instance, range(1, t + 1)))
        if found is not None and found[1] > 1e-11:
            best = max(best, found[0])
    return max(best, 1.0)
