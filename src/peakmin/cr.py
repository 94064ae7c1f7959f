"""Optimal competitive ratio for the online peak-minimization policy family.

The worst-case ratio over demand profiles that force a given future index set
is a linear-fractional program; the optimal ratio is the maximum of that
program over the prefix index sets {1..t} for t from floor(c/d_ub)+1 to T.
A brute-force enumerator of the forced-discharge function Phi doubles as the
validation oracle on tiny horizons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache
from itertools import product

import numpy as np

from .core import EPS_KWH, DemandProfile, Instance, reference_values
from .errors import DegenerateInstance, EmptyIndexSet, HorizonTooLarge
from .lp import INFEASIBLE, OPTIMAL, LfpProblem, LfpResult, solve_lfp
from .offline import offline_peak_values

_GRID_CAP = 2_000_000  # max enumerated profiles in phi_bruteforce


@dataclass(frozen=True)
class CrResult:
    """Optimal ratio with the index set and demand profile attaining it."""

    pi_star: float
    argmax_set: tuple[int, ...]
    witness_profile: DemandProfile | None
    candidate_values: dict[int, float]
    from_defensive_candidate: bool = False


def _check_index_set(instance: Instance, index_set) -> tuple[int, ...]:
    idx = tuple(sorted(int(i) for i in index_set))
    if not idx:
        raise EmptyIndexSet("index set must be nonempty")
    if idx[0] < 1 or idx[-1] > instance.horizon_T or len(set(idx)) != len(idx):
        raise EmptyIndexSet(f"index set {idx} not a subset of 1..{instance.horizon_T}")
    return idx


def build_cr_compute(instance: Instance, index_set) -> LfpProblem:
    """Worst-case-ratio LFP over scenarios in the given index set, as printed.

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
    nx, nu = T, T
    nd = T * T
    n = nx + nu + nd

    def xj(j):  # 1-based
        return j - 1

    def ui(i):
        return nx + i - 1

    def dij(i, j):
        return nx + nu + (i - 1) * T + (j - 1)

    cons = []
    for i in range(1, T + 1):
        row = np.zeros(n)
        for j in range(1, T + 1):
            row[dij(i, j)] = 1.0
        cons.append((row, "==", c))
        for j in range(1, i + 1):
            row = np.zeros(n)
            row[xj(j)] = 1.0
            row[dij(i, j)] = -1.0
            row[ui(i)] = -1.0
            cons.append((row, "<=", 0.0))
        for j in range(i + 1, T + 1):
            row = np.zeros(n)
            row[dij(i, j)] = -1.0
            row[ui(i)] = -1.0
            cons.append((row, "<=", -lo))
    bounds = (
        [(lo, hi)] * nx
        + [(0.0, None)] * nu
        + [(0.0, instance.rate_limit)] * nd
    )
    num = np.zeros(n)
    den = np.zeros(n)
    for i in idx:
        num[xj(i)] = 1.0
        den[ui(i)] = 1.0
    return LfpProblem(
        numerator=num,
        numerator_constant=-c,
        denominator=den,
        denominator_constant=0.0,
        constraints=cons,
        bounds=bounds,
    )


def _build_cr_compute_reduced(instance: Instance, index_set) -> LfpProblem:
    """Equivalent LFP with the inert blocks removed.

    Scenario blocks for i outside the index set never touch the objective and
    are feasible on their own (they only pin their private u_i), so they are
    dropped. Within a block, the tail discharges delta_ij for j > i all face
    the identical constraint d_lb - delta_ij <= u_i; an equal split is optimal,
    so they collapse into one aggregate D_i with (T-i)*d_lb - D_i <= (T-i)*u_i.
    Demand variables x_j with j beyond max(index set) only ever see their box
    bounds and are dropped as well. Equality of optima is covered by tests
    against build_cr_compute.

    Columns: x_1..x_jmax, then per scenario i in the index set the block
    u_i, delta_i1..delta_ii, D_i (no D_T). The dense Charnes-Cooper solve is
    sensitive to this order, so it is kept as is.
    """
    idx = _check_index_set(instance, index_set)
    T = instance.horizon_T
    c = instance.capacity_c
    lo, hi = instance.demand_lb, instance.demand_ub
    rate = instance.rate_limit

    bounds: list[tuple[float, float | None]] = [(lo, hi)] * idx[-1]
    blocks = []  # first column (u_i) of each scenario block
    for i in idx:
        blocks.append(len(bounds))
        bounds += [(0.0, None)] + [(0.0, rate)] * i
        if i < T:  # aggregate D_i spans T-i tail slots
            bounds.append((0.0, None if rate is None else (T - i) * rate))
    n = len(bounds)

    cons = []
    num = np.zeros(n)
    den = np.zeros(n)
    for i, ofs in zip(idx, blocks):
        width = i + (1 if i < T else 0)
        budget = np.zeros(n)
        budget[ofs + 1 : ofs + 1 + width] = 1.0
        cons.append((budget, "==", c))
        for j in range(1, i + 1):  # x_j - delta_ij <= u_i
            row = np.zeros(n)
            row[j - 1] = 1.0
            row[ofs + j] = -1.0
            row[ofs] = -1.0
            cons.append((row, "<=", 0.0))
        if i < T:  # aggregated tail: (T-i)*lb - D_i <= (T-i)*u_i
            tail = T - i
            row = np.zeros(n)
            row[ofs + 1 + i] = -1.0
            row[ofs] = -tail
            cons.append((row, "<=", -tail * lo))
        num[i - 1] = 1.0
        den[ofs] = 1.0
    return LfpProblem(
        numerator=num,
        numerator_constant=-c,
        denominator=den,
        denominator_constant=0.0,
        constraints=cons,
        bounds=bounds,
    )


def solve_cr_compute(instance: Instance, index_set) -> LfpResult:
    """Solve the worst-case-ratio program for one index set.

    The reduced encoding is solved; tests check it against the printed form
    of build_cr_compute. The denominator is skipped from the auxiliary
    positivity check here: any feasible point has u_i >= (sum_j p_j - c)/T
    >= (T*d_lb - c)/T, which is positive whenever c < T*d_lb (the caller's
    precondition).
    """
    return solve_lfp(_build_cr_compute_reduced(instance, index_set), check_denominator=False)


def _floor_quotient(c: float, d_ub: float) -> int:
    """floor(c/d_ub) computed on decimal strings; float fallback nudges down."""
    try:
        return int(Decimal(str(c)) // Decimal(str(d_ub)))
    except Exception:
        return int(math.floor(c / d_ub - 1e-12))


def ratio_lower_bound(instance: Instance, index_set, demand: DemandProfile) -> float:
    """(sum_{i in I} d_i - c) / (sum_{i in I} v(d^i)): a bound any feasible
    target ratio must respect; the optimizer's witness attains it at pi_star."""
    idx = _check_index_set(instance, index_set)
    d = demand.values
    num = float(sum(d[i - 1] for i in idx)) - instance.capacity_c
    den = 0.0
    for i in idx:
        den += offline_peak_values(instance, reference_values(instance, d[:i]))
    if den <= EPS_KWH:
        raise DegenerateInstance("offline peaks sum to zero in ratio denominator")
    return num / den


def optimal_cr(instance: Instance) -> CrResult:
    """Maximum of the worst-case-ratio program over prefix candidate sets.

    Candidates are t = tau+1..T with tau = floor(c/d_ub), plus max(tau, 1) as a
    defensive extra: prefixes at or below tau can never attain the maximum, so
    tests assert the extra never wins. Ties break toward smaller t.
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
        return CrResult(1.0, (1,), witness, {}, False)
    if instance.rate_limit is not None and c > T * instance.rate_limit + EPS_KWH:
        # the rate cap alone keeps total discharge below c, so the inventory
        # never binds and ratio 1 is achievable; the scenario programs are
        # infeasible (they pin sum_j delta_ij = c) and prove nothing here
        return CrResult(1.0, (), None, {}, False)

    tau = _floor_quotient(c, instance.demand_ub)
    tau = max(0, min(tau, T - 1))
    candidates = sorted({max(tau, 1)} | set(range(tau + 1, T + 1)))
    values: dict[int, float] = {}
    best_t = None
    best_val = -math.inf
    best_x: np.ndarray | None = None
    for t in candidates:
        res = solve_cr_compute(instance, range(1, t + 1))
        if res.status == INFEASIBLE:
            continue
        if res.status != OPTIMAL:
            raise DegenerateInstance(f"scenario program for t={t} returned {res.status}")
        values[t] = res.value
        if res.value > best_val + 1e-12 and res.x is not None:
            best_val = res.value
            best_t = t
            best_x = res.x[:t]  # the demand block x_1..x_t
    if best_t is None:
        raise DegenerateInstance("no scenario program admitted a witness")
    witness = DemandProfile(instance, reference_values(instance, best_x))
    # ratios below 1 are LP noise: the all-d_lb profile already forces 1
    pi_star = max(best_val, 1.0)
    defensive = tau >= 1 and best_t == tau
    return CrResult(
        pi_star=pi_star,
        argmax_set=tuple(range(1, best_t + 1)),
        witness_profile=witness,
        candidate_values=values,
        from_defensive_candidate=defensive,
    )


@lru_cache(maxsize=8)
def _phi_table(instance: Instance, grid_resolution: float):
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
    profiles = np.array(list(product(pts, repeat=T)), dtype=float)
    n = len(profiles)
    peaks = np.empty((n, T))
    for t in range(1, T + 1):
        ref = np.full((n, T), lo)
        ref[:, :t] = profiles[:, :t]
        peaks[:, t - 1] = offline_peak_values(instance, ref)
    profiles.flags.writeable = False
    peaks.flags.writeable = False
    return profiles, peaks


def phi_bruteforce(instance: Instance, pi: float, grid_resolution: float) -> float:
    """Worst-case total discharge of the fixed-ratio policy over grid profiles.

    Exhaustive oracle: enumerates {d_lb, d_lb+h, ..., d_ub}^T and simulates the
    per-slot rule sum_t [d_t - pi * v(d^t)]^+ on every profile. Horizons above
    6 slots are rejected.
    """
    return phi_bruteforce_witness(instance, pi, grid_resolution)[0]


def phi_bruteforce_witness(
    instance: Instance, pi: float, grid_resolution: float
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
