"""Online discharge policies built on ratio pursuit.

The fixed-ratio policy discharges just enough each slot to keep the purchased
peak within pi times the offline peak of the reference profile (the observed
prefix padded with the demand lower bound). Its anytime refinement re-certifies
the smallest still-guaranteeable ratio every slot by bisecting on a worst-case
future-requirement LP, and two variants extend it: a monthly mode that never
discharges below the month's standing peak, and a depleting mode that spends
provably redundant inventory eagerly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    EPS_KWH,
    DemandProfile,
    DischargeSchedule,
    Instance,
    OnlineState,
    reference_values,
)
from .cr import optimal_cr
from .errors import (
    DegenerateOfflinePeak,
    DemandOutOfBounds,
    InvalidIndexSet,
    NegativeSlack,
    NumericalFailure,
)
from .lp import INFEASIBLE, OPTIMAL, LinearProgram, solve_lp
from .offline import offline_peak_values

MODE_FIXED = "fixed"
MODE_ANYTIME = "anytime"
MODE_ANYTIME_DEPLETING = "anytime_depleting"
_MODES = (MODE_FIXED, MODE_ANYTIME, MODE_ANYTIME_DEPLETING)

# largest LpResult.residual a future-requirement answer may carry
_RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class PolicyRun:
    """Outcome of one policy run over a full demand profile.

    ratio_trajectory holds the per-slot certified ratio for ratio-pursuit
    policies (constant for the fixed policy, nonincreasing for the anytime
    ones); baseline policies leave it empty. clamp_engaged records that some
    slot's raw decision had to be cut to respect rate, demand, or inventory.
    """

    schedule: DischargeSchedule
    ratio_trajectory: np.ndarray
    final_peak: float
    inventory_spent: float
    clamp_engaged: bool = False

    def __post_init__(self):
        traj = np.asarray(self.ratio_trajectory, dtype=float)
        object.__setattr__(self, "ratio_trajectory", traj)
        if traj.size and np.any(np.diff(traj) > 1e-9):
            raise ValueError("ratio_trajectory must be nonincreasing")


@dataclass(frozen=True)
class PolicyOptions:
    """Configuration for run_anytime.

    mode: "fixed" (pursue fixed_pi forever), "anytime", or "anytime_depleting".
    monthly_peak: standing peak of the billing month; 0 disables monthly mode.
    initial_ratio: seed for the slot-1 certification; None computes the
    optimal competitive ratio from the instance.
    """

    mode: str = MODE_ANYTIME
    fixed_pi: float | None = None
    monthly_peak: float = 0.0
    bisection_epsilon: float = 1e-4
    initial_ratio: float | None = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {_MODES}")
        if self.mode == MODE_FIXED:
            if self.fixed_pi is None:
                raise ValueError("fixed mode requires fixed_pi")
            if self.fixed_pi < 1.0:
                raise ValueError(f"fixed_pi must be >= 1, got {self.fixed_pi}")
        if self.bisection_epsilon <= 0:
            raise ValueError("bisection_epsilon must be positive")
        if self.monthly_peak < 0:
            raise ValueError("monthly_peak must be >= 0")
        if self.initial_ratio is not None and self.initial_ratio < 1.0:
            raise ValueError("initial_ratio must be >= 1")


def _check_step_inputs(instance: Instance, state: OnlineState, d_t: float) -> None:
    if len(state.observed) != len(state.actions):
        raise ValueError("state is mid-slot; commit the pending action first")
    lo, hi = instance.demand_lb, instance.demand_ub
    if not (lo - EPS_KWH <= d_t <= hi + EPS_KWH):
        raise DemandOutOfBounds(f"demand {d_t} outside [{lo}, {hi}]")


def _pcr_amounts(
    instance: Instance, state: OnlineState, pi: float, d_t: float
) -> tuple[float, float]:
    """Raw ratio-pursuit discharge and its feasibility-clamped counterpart."""
    prefix = np.array(state.observed + [d_t], dtype=float)
    v_ref = offline_peak_values(instance, reference_values(instance, prefix))
    raw = max(0.0, d_t - pi * v_ref)
    clamped = min(raw, instance.slot_cap(d_t), max(0.0, state.remaining))
    return raw, clamped


def pcr_step(instance: Instance, state: OnlineState, pi: float, d_t: float) -> float:
    """Discharge of the fixed-ratio policy for the slot about to be committed.

    Returns [d_t - pi * v]^+ where v is the offline peak of the reference
    profile through this slot, clamped to the rate limit, the demand itself,
    and the remaining inventory. At any pi at or above the optimal competitive
    ratio the clamp provably never binds; it exists as defense in depth.
    """
    _check_step_inputs(instance, state, d_t)
    _raw, clamped = _pcr_amounts(instance, state, pi, d_t)
    return clamped


def run_pcr_pmd(instance: Instance, pi: float, demand: DemandProfile) -> PolicyRun:
    """Run the fixed-ratio policy causally over a full profile.

    pi below the optimal competitive ratio is allowed; infeasibility then
    shows up as clamp_engaged=True rather than an exception.
    """
    state = OnlineState(instance)
    clamp_engaged = False
    for d_t in demand.values:
        raw, delta = _pcr_amounts(instance, state, pi, float(d_t))
        if delta < raw - 1e-9:
            clamp_engaged = True
        state.observe(float(d_t))
        state.commit(delta)
    actions = np.array(state.actions, dtype=float)
    schedule = DischargeSchedule(instance, demand, actions)
    return PolicyRun(
        schedule=schedule,
        ratio_trajectory=np.full(instance.horizon_T, float(pi)),
        final_peak=float(np.max(demand.values - actions)),
        inventory_spent=float(actions.sum()),
        clamp_engaged=clamp_engaged,
    )


@dataclass(frozen=True)
class _SlotView:
    """Frozen snapshot of everything the slot-t certification needs."""

    instance: Instance
    demands: np.ndarray  # observed demands through slot t, d_t included
    running_peak: float
    remaining: float
    monthly_peak: float
    v_ref: float  # offline peak of the reference profile through slot t

    @property
    def t(self) -> int:
        return len(self.demands)


def _slot_view(
    instance: Instance, state: OnlineState, d_t: float, monthly_peak: float
) -> _SlotView:
    prefix = np.array(state.observed + [d_t], dtype=float)
    v_ref = offline_peak_values(instance, reference_values(instance, prefix))
    if v_ref <= EPS_KWH:
        # only reachable when the inventory matches the whole lower-bound
        # demand, which instance validation rejects; kept as a hard stop
        raise DegenerateOfflinePeak(f"reference offline peak {v_ref} at slot {len(prefix)}")
    return _SlotView(
        instance=instance,
        demands=prefix,
        running_peak=state.running_peak,
        remaining=max(0.0, state.remaining),
        monthly_peak=monthly_peak,
        v_ref=v_ref,
    )


def _constant_term(view: _SlotView, pi: float) -> float:
    d_t = float(view.demands[-1])
    return max(0.0, d_t - max(pi * view.v_ref, view.running_peak))


def _reduced_future_lp(view: _SlotView, pi: float, kmax: int) -> LinearProgram:
    """Worst-case future requirement over scenarios t+1..kmax, tail-aggregated.

    One scenario per slot i: the adversary stops worsening at i, so its
    offline benchmark sees [d_1..d_t, x_{t+1}..x_i, lb, ..., lb]. Identical
    tail slots share one aggregate discharge variable D_i; the per-slot tail
    rows lb - delta_ij <= u_i collapse to their equal-split optimum, which is
    exact because only the smallest tail discharge can bind.
    """
    inst = view.instance
    T, t = inst.horizon_T, view.t
    scen = list(range(t + 1, kmax + 1))
    ns = len(scen)
    rate = inst.rate_limit
    floor = max(view.running_peak, view.monthly_peak)
    # pi = 0 can only be evaluated when no peak floor exists yet
    lb_u = 0.0 if floor <= 0.0 else floor / pi

    n = 2 * ns  # u block then x block
    blocks = []
    for i in scen:
        blocks.append(n)
        n += i + (1 if i < T else 0)

    bounds: list[tuple[float, float | None]] = []
    bounds += [(lb_u, None)] * ns
    bounds += [(max(inst.demand_lb, view.running_peak), inst.demand_ub)] * ns
    for i in scen:
        bounds += [(0.0, rate)] * i
        if i < T:
            tail_cap = None if rate is None else (T - i) * rate
            bounds.append((0.0, tail_cap))

    rows = []
    for si, i in enumerate(scen):
        ofs = blocks[si]
        u_col = si
        width = i + (1 if i < T else 0)
        budget = np.zeros(n)
        budget[ofs : ofs + width] = 1.0
        rows.append((budget, "==", inst.capacity_c))
        for j in range(1, t + 1):  # past slots: d_j - delta_ij <= u_i
            row = np.zeros(n)
            row[u_col] = -1.0
            row[ofs + j - 1] = -1.0
            rows.append((row, "<=", -float(view.demands[j - 1])))
        for j in range(t + 1, i + 1):  # scenario slots: x_j - delta_ij <= u_i
            row = np.zeros(n)
            row[ns + (j - t - 1)] = 1.0
            row[u_col] = -1.0
            row[ofs + j - 1] = -1.0
            rows.append((row, "<=", 0.0))
        if i < T:  # aggregated tail: (T-i)*lb - D_i <= (T-i)*u_i
            row = np.zeros(n)
            row[u_col] = -(T - i)
            row[ofs + i] = -1.0
            rows.append((row, "<=", -(T - i) * inst.demand_lb))

    obj = np.zeros(n)
    obj[:ns] = -pi
    obj[ns : 2 * ns] = 1.0
    return LinearProgram(objective=obj, maximize=True, constraints=rows, bounds=bounds)


@dataclass
class _WarmStart:
    """What one slot's bisection remembers between its steps.

    Between steps only the -pi objective terms and the floor/pi bound on u
    move, so the last optimal basis of each cutoff's LP usually stays
    optimal and solve_lp re-prices it instead of pivoting; and the cutoff
    that exceeded the budget last usually exceeds it again.
    """

    bases: dict[int, np.ndarray] = field(default_factory=dict)
    binding: int | None = None


def _future_requirement(
    view: _SlotView, pi: float, kmax: int, warm: _WarmStart | None = None
) -> float:
    """AOCR requirement beyond the constant term for one scenario cutoff."""
    if kmax <= view.t:
        return 0.0
    basis = None if warm is None else warm.bases.get(kmax)
    res = solve_lp(_reduced_future_lp(view, pi, kmax), basis=basis)
    if res.status == INFEASIBLE:
        # the scenario cannot spend the full inventory (c > T * rate); no
        # admissible benchmark exists, so it imposes no requirement
        return -math.inf
    if res.status != OPTIMAL:
        raise NumericalFailure(f"future-requirement LP ended {res.status}")
    if res.residual > _RESIDUAL_TOL:
        raise NumericalFailure(
            f"future-requirement LP at slot {view.t}, cutoff {kmax}: "
            f"residual {res.residual:.3g}"
        )
    if warm is not None:
        warm.bases[kmax] = res.basis
    return res.value


def _requirement_exceeds(
    view: _SlotView, pi: float, budget: float, warm: _WarmStart
) -> bool:
    """True when the worst cutoff's requirement is strictly above budget."""
    const = _constant_term(view, pi)
    if const > budget:
        return True
    cutoffs = list(range(view.t + 1, view.instance.horizon_T + 1))
    if warm.binding is not None:
        cutoffs.remove(warm.binding)
        cutoffs.insert(0, warm.binding)
    for kmax in cutoffs:
        if const + _future_requirement(view, pi, kmax, warm) > budget:
            warm.binding = kmax
            return True
    return False


def _exact_requirement(view: _SlotView, pi: float) -> float:
    const = _constant_term(view, pi)
    worst = 0.0
    for kmax in range(view.t + 1, view.instance.horizon_T + 1):
        worst = max(worst, _future_requirement(view, pi, kmax))
    return const + worst


def _certified_ratio(
    view: _SlotView, prev_ratio: float, epsilon: float
) -> tuple[float, bool]:
    """Bisection for the smallest still-guaranteeable ratio at this slot.

    Returns (ratio, early_exit). The lower endpoint is the ratio forced by
    the standing peak (daily or monthly), floored at 1: no schedule beats the
    offline peak, so certifiable ratios below 1 do not exist, and evaluating
    only pi >= 1 also keeps the slot's own requirement within the rate limit
    (the reference peak is rate-corrected, so [d_t - pi v]^+ <= rate for
    pi >= 1). If the lower endpoint needs no more than the remaining
    inventory it is returned outright, even above prev_ratio: a monthly peak
    can force the first slot's certificate past the daily optimum. Otherwise
    the loop keeps the invariant that the upper endpoint is certified
    feasible and returns it. A never-discharging policy keeps every peak at
    or below the demand ceiling, so demand_ub / v is certifiable and serves
    as the upper endpoint whenever prev_ratio sits below the floor.
    """
    warm = _WarmStart()
    pi_lb = max(1.0, max(view.running_peak, view.monthly_peak) / view.v_ref)
    if not _requirement_exceeds(view, pi_lb, view.remaining, warm):
        return pi_lb, True
    pi_ub = prev_ratio
    if pi_ub <= pi_lb:
        pi_ub = max(pi_lb + epsilon, view.instance.demand_ub / view.v_ref)
    while pi_ub - pi_lb >= epsilon:
        mid = 0.5 * (pi_lb + pi_ub)
        if _requirement_exceeds(view, mid, view.remaining, warm):
            pi_lb = mid
        else:
            pi_ub = mid
    return pi_ub, False


def build_aocr_thr(
    instance: Instance, state: OnlineState, pi: float, index_set
) -> LinearProgram:
    """Worst-case future-requirement LP in its full printed form.

    state must be mid-slot (d_t observed, delta_t not yet committed). The
    index set must be a scenario cutoff {t+1..k} for some k in [t, T]; the
    empty set yields the constant-term-only program. Variables are u_i, x_i,
    and delta_ij over all j in [T], with no aggregation; the bisection engine
    uses an equivalent reduced encoding internally.
    """
    if len(state.observed) != len(state.actions) + 1:
        raise ValueError("state must be mid-slot: observe d_t before building")
    T, t = instance.horizon_T, len(state.observed)
    scen = sorted(int(i) for i in index_set)
    if scen != list(range(t + 1, t + 1 + len(scen))) or (scen and scen[-1] > T):
        raise InvalidIndexSet(
            f"index set {scen} is not a consecutive block t+1..k with k <= {T}"
        )
    view = _slot_view_mid(instance, state)
    const = _constant_term(view, pi)
    ns = len(scen)
    names: list[str] = []
    names += [f"u{i}" for i in scen]
    names += [f"x{i}" for i in scen]
    names += [f"delta_{i}_{j}" for i in scen for j in range(1, T + 1)]
    n = 2 * ns + ns * T

    def d_col(si: int, j: int) -> int:
        return 2 * ns + si * T + (j - 1)

    bounds: list[tuple[float, float | None]] = []
    bounds += [(0.0, None)] * ns
    bounds += [(max(instance.demand_lb, view.running_peak), instance.demand_ub)] * ns
    bounds += [(0.0, instance.rate_limit)] * (ns * T)

    rows = []
    for si, i in enumerate(scen):
        budget = np.zeros(n)
        budget[d_col(si, 1) : d_col(si, T) + 1] = 1.0
        rows.append((budget, "==", instance.capacity_c))
        for j in range(1, i + 1):
            row = np.zeros(n)
            row[si] = -1.0
            row[d_col(si, j)] = -1.0
            if j <= t:
                rows.append((row, "<=", -float(view.demands[j - 1])))
            else:
                row[ns + (j - t - 1)] = 1.0
                rows.append((row, "<=", 0.0))
        for j in range(i + 1, T + 1):
            row = np.zeros(n)
            row[si] = -1.0
            row[d_col(si, j)] = -1.0
            rows.append((row, "<=", -instance.demand_lb))
        floor_row = np.zeros(n)
        floor_row[si] = -pi
        rows.append((floor_row, "<=", -view.running_peak))
        if view.monthly_peak > 0:
            monthly = np.zeros(n)
            monthly[si] = -pi
            rows.append((monthly, "<=", -view.monthly_peak))

    obj = np.zeros(n)
    obj[:ns] = -pi
    obj[ns : 2 * ns] = 1.0
    return LinearProgram(
        objective=obj,
        maximize=True,
        constraints=rows,
        bounds=bounds,
        objective_constant=const,
        variable_names=names,
    )


def _slot_view_mid(instance: Instance, state: OnlineState) -> _SlotView:
    """Slot view from a mid-slot state (d_t already observed)."""
    prefix = np.array(state.observed, dtype=float)
    v_ref = offline_peak_values(instance, reference_values(instance, prefix))
    if v_ref <= EPS_KWH:
        raise DegenerateOfflinePeak(f"reference offline peak {v_ref} at slot {len(prefix)}")
    return _SlotView(
        instance=instance,
        demands=prefix,
        running_peak=state.running_peak,
        remaining=max(0.0, state.remaining),
        monthly_peak=state.monthly_peak,
        v_ref=v_ref,
    )


def anytime_ratio(
    instance: Instance, state: OnlineState, d_t: float, epsilon: float = 1e-4
) -> float:
    """Smallest ratio still guaranteeable after observing d_t.

    state carries the t-1 committed slots plus prev_ratio, the ceiling of the
    bisection bracket. A fresh state (prev_ratio still infinite) is seeded
    with the instance's optimal competitive ratio, matching the convention
    that slot 0 certifies exactly that ratio. Monthly mode is driven by
    state.monthly_peak.
    """
    _check_step_inputs(instance, state, d_t)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    prev = state.prev_ratio
    if not math.isfinite(prev):
        prev = optimal_cr(instance).pi_star
    view = _slot_view(instance, state, float(d_t), state.monthly_peak)
    pi_t, _early = _certified_ratio(view, prev, epsilon)
    return pi_t


def depleting_amount(
    instance: Instance, state: OnlineState, pi_t: float, base_delta: float
) -> float:
    """Discharge for the slot raised by the redundant inventory.

    The slack is the remaining inventory minus the worst-case inventory needed
    to keep pi_t guaranteeable from this slot on; spending it cannot break the
    pi_t guarantee. Clamped to the slot's hard feasibility caps only. A
    materially negative slack means the certification engine disagrees with
    itself and is raised as NegativeSlack.
    """
    if len(state.observed) != len(state.actions) + 1:
        raise ValueError("state must be mid-slot: observe d_t before depleting")
    view = _slot_view_mid(instance, state)
    slack = view.remaining - _exact_requirement(view, pi_t)
    if slack < -1e-6:
        raise NegativeSlack(
            f"slot {view.t}: requirement exceeds remaining inventory by {-slack}"
        )
    d_t = float(state.observed[-1])
    raised = base_delta + max(0.0, slack)
    return min(raised, instance.slot_cap(d_t), view.remaining)


def run_anytime(
    instance: Instance, demand: DemandProfile, options: PolicyOptions | None = None
) -> PolicyRun:
    """Run the anytime-optimal policy (or a variant selected by options).

    Per slot: certify the smallest guaranteeable ratio, discharge
    [d_t - pi_t * v]^+ against the reference offline peak v, and in depleting
    mode raise the discharge by the redundant slack at slots where the harvest
    cannot disturb later certificates. The ratio trajectory is nonincreasing
    by construction of the bisection bracket.
    """
    options = options or PolicyOptions()
    if options.mode == MODE_FIXED:
        return run_pcr_pmd(instance, float(options.fixed_pi), demand)

    pi_prev = (
        float(options.initial_ratio)
        if options.initial_ratio is not None
        else optimal_cr(instance).pi_star
    )
    state = OnlineState(instance, monthly_peak=options.monthly_peak, prev_ratio=pi_prev)
    trajectory = []
    clamp_engaged = False
    for d_t in demand.values:
        d_t = float(d_t)
        view = _slot_view(instance, state, d_t, options.monthly_peak)
        pi_t, _early = _certified_ratio(view, state.prev_ratio, options.bisection_epsilon)
        raw = max(0.0, d_t - pi_t * view.v_ref)
        delta = min(raw, instance.slot_cap(d_t), view.remaining)
        if delta < raw - 1e-9:
            clamp_engaged = True
        state.observe(d_t)
        if options.mode == MODE_ANYTIME_DEPLETING:
            # Harvest redundant slack only when doing so cannot disturb any
            # later certificate: at the final slot (nothing is certified
            # afterwards) and once the certified ratio has reached 1.0 (every
            # later certificate is pinned at 1.0 regardless of inventory, since
            # certificates are nonincreasing and never drop below 1). Spending
            # slack at other slots shrinks the inventory that later bisections
            # draw on and can leave the run certifying a strictly larger ratio
            # than the plain anytime policy on the same demands.
            if state.slot_index == instance.horizon_T or pi_t <= 1.0 + 1e-9:
                delta = depleting_amount(instance, state, pi_t, delta)
        state.commit(delta)
        state.prev_ratio = pi_t
        trajectory.append(pi_t)
    actions = np.array(state.actions, dtype=float)
    schedule = DischargeSchedule(instance, demand, actions)
    return PolicyRun(
        schedule=schedule,
        ratio_trajectory=np.array(trajectory),
        final_peak=float(np.max(demand.values - actions)),
        inventory_spent=float(actions.sum()),
        clamp_engaged=clamp_engaged,
    )
