"""Online discharge policies built on CR-Pursuit.

Every ratio-pursuit policy runs one slot loop, _pursue: at each slot it takes
a ratio pi_t and discharges [d_t - pi_t * v_t]^+, where v_t is the offline
peak of the reference profile (the observed prefix padded with the demand
lower bound). The fixed-ratio policy is that loop at a ratio that never moves.
The anytime refinement re-certifies the smallest still-guaranteeable ratio
every slot by bisecting on a worst-case future-requirement LP, and two
variants extend it: a monthly mode that never discharges below the month's
standing peak, and a depleting mode that spends provably redundant inventory
eagerly.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .core import (
    EPS_KWH,
    DemandProfile,
    DischargeSchedule,
    Instance,
    OnlineState,
    is_at_least,
    is_positive,
    reference_values,
)
from .cr import empty_program, grow_program, inventory_unbounded, optimal_cr, scenario_top
from .errors import DegenerateOfflinePeak, NegativeSlack, NonPositiveBound, NumericalFailure
from .lp import OPTIMAL, LinearProgram, parametric_vertex, solve_lp
from .offline import offline_peak_values

MODE_ANYTIME = "anytime"
MODE_ANYTIME_DEPLETING = "anytime_depleting"
_MODES = (MODE_ANYTIME, MODE_ANYTIME_DEPLETING)


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

    @classmethod
    def from_actions(cls, instance: Instance, demand: DemandProfile, actions,
                     ratio_trajectory=(), clamp_engaged: bool = False) -> PolicyRun:
        """The run that committed actions on demand; its peak and spend come
        from the actions as given, not from the schedule's clipped copy."""
        actions = np.array(actions, dtype=float)
        return cls(
            schedule=DischargeSchedule(instance, demand, actions),
            ratio_trajectory=ratio_trajectory,
            final_peak=float(np.max(demand.values - actions)),
            inventory_spent=float(actions.sum()),
            clamp_engaged=clamp_engaged,
        )


@dataclass(frozen=True)
class PolicyOptions:
    """Configuration for run_anytime.

    mode: "anytime" or "anytime_depleting"; the fixed-ratio policy is
    run_pcr_pmd.
    monthly_peak: standing peak of the billing month; 0 disables monthly mode.
    initial_ratio: seed for the slot-1 certification, finite and >= 1;
    None computes the optimal competitive ratio from the instance.
    """

    mode: str = MODE_ANYTIME
    monthly_peak: float = 0.0
    bisection_epsilon: float = 1e-4
    initial_ratio: float | None = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {_MODES}")
        if not is_positive(self.bisection_epsilon):
            raise ValueError("bisection_epsilon must be a positive finite number")
        if not is_at_least(self.monthly_peak, 0.0):
            raise NonPositiveBound(f"monthly_peak must be finite and >= 0, got {self.monthly_peak}")
        if self.initial_ratio is not None and not is_at_least(self.initial_ratio, 1.0):
            raise ValueError("initial_ratio must be finite and >= 1")


def _check_ratio(pi: float) -> None:
    # NaN and a bool are rejected too; pi = inf would never discharge
    if not is_at_least(pi, 1.0):
        raise ValueError(f"pi must be >= 1 and finite, got {pi}")


def _seeded(instance: Instance, ratio: float | None) -> float:
    """ratio, or pi* where ratio is None or not finite (a fresh state's inf)."""
    return optimal_cr(instance).pi_star if ratio is None or not math.isfinite(ratio) else float(ratio)


def _pcr_amounts(
    instance: Instance, state: OnlineState, pi: float, d_t: float, v_ref: float
) -> tuple[float, float]:
    """Raw ratio-pursuit discharge [d_t - pi * v_ref]^+ and its counterpart
    clamped to the rate limit, the demand, and the remaining inventory."""
    raw = max(0.0, d_t - pi * v_ref)
    clamped = min(raw, instance.slot_cap(d_t), max(0.0, state.remaining))
    return raw, clamped


def pcr_step(instance: Instance, state: OnlineState, pi: float, d_t: float) -> float:
    """Discharge of the fixed-ratio policy for the slot about to be committed.

    Returns [d_t - pi * v]^+ where v is the offline peak of the reference
    profile through this slot, clamped to the rate limit, the demand itself,
    and the remaining inventory. At any pi at or above the optimal competitive
    ratio the clamp provably never binds; it exists as defense in depth.
    pi below 1, infinite or NaN raises ValueError.
    """
    _check_ratio(pi)
    state.admit(d_t, instance)
    return _pcr_amounts(instance, state, pi, d_t, _slot_view(instance, state, d_t).v_ref)[1]


def run_pcr_pmd(instance: Instance, pi: float, demand: DemandProfile) -> PolicyRun:
    """Run the fixed-ratio policy causally over a full profile: CR-Pursuit at
    a ratio that never moves.

    pi below the optimal competitive ratio is allowed; infeasibility then
    shows up as clamp_engaged=True rather than an exception. pi below 1,
    infinite or NaN raises ValueError.
    """
    _check_ratio(pi)
    return _pursue(instance, demand, OnlineState(instance, prev_ratio=pi), lambda view, prev: prev)


def _pursue(instance: Instance, demand: DemandProfile, state: OnlineState, ratio,
            harvest: bool = False) -> PolicyRun:
    """CR-Pursuit, the one slot loop of every ratio-pursuit policy: each slot
    discharges [d_t - pi_t * v_t]^+ at pi_t = ratio(view, state.prev_ratio),
    clamped to the slot's caps (a cut sets clamp_engaged)."""
    trajectory = []
    clamp_engaged = False
    for d_t in demand.values:
        d_t = float(d_t)
        view = _slot_view(instance, state, d_t)
        pi_t = ratio(view, state.prev_ratio)
        raw, delta = _pcr_amounts(instance, state, pi_t, d_t, view.v_ref)
        clamp_engaged |= delta < raw - 1e-9
        state.observe(d_t)
        # Harvest redundant slack only when doing so cannot disturb any
        # later certificate: at the final slot (nothing is certified
        # afterwards) and once the certified ratio has reached 1.0 (every
        # later certificate is pinned at 1.0 regardless of inventory, since
        # certificates are nonincreasing and never drop below 1). Spending
        # slack at other slots shrinks the inventory that later bisections
        # draw on and can leave the run certifying a strictly larger ratio
        # than the plain anytime policy on the same demands.
        if harvest and (state.slot_index == instance.horizon_T or pi_t <= 1.0 + 1e-9):
            delta = depleting_amount(instance, state, pi_t, delta)
        state.commit(delta)
        state.prev_ratio = pi_t
        trajectory.append(pi_t)
    return PolicyRun.from_actions(instance, demand, state.actions, trajectory, clamp_engaged)


@dataclass(frozen=True, eq=False)
class _SlotView:
    """Frozen snapshot of everything the slot-t certification needs.

    Views are equal when they hold the same instance object and the same
    demands, running peak, remaining inventory and monthly peak, bit for
    bit; v_ref follows from the instance and the demands. The instance is
    compared by identity, since Instance equality is by value, under which
    capacity_c 0.0 and -0.0 are equal.
    """

    instance: Instance
    demands: np.ndarray  # observed demands through slot t, d_t included
    running_peak: float
    remaining: float
    monthly_peak: float
    v_ref: float  # offline peak of the reference profile through slot t

    @property
    def t(self) -> int:
        return len(self.demands)

    def _state(self) -> tuple:
        # both views hold their instance while they are compared, so equal
        # ids are one object
        return (id(self.instance), self.demands.tobytes(),
                struct.pack("3d", self.running_peak, self.remaining, self.monthly_peak))

    def __eq__(self, other):
        return isinstance(other, _SlotView) and self._state() == other._state()

    def __hash__(self):
        return hash(self._state())


def _slot_view(
    instance: Instance, state: OnlineState, d_t: float | None = None
) -> _SlotView:
    """Slot view for the demand d_t about to be observed, or, with d_t None,
    for a mid-slot state that has observed it already."""
    observed = state.observed if d_t is None else state.observed + [d_t]
    prefix = np.array(observed, dtype=float)
    return _SlotView(
        instance=instance,
        demands=prefix,
        running_peak=state.running_peak,
        remaining=max(0.0, state.remaining),
        monthly_peak=state.monthly_peak,
        v_ref=offline_peak_values(instance, reference_values(instance, prefix)),
    )


def _constant_term(view: _SlotView, pi: float) -> float:
    d_t = float(view.demands[-1])
    return max(0.0, d_t - max(pi * view.v_ref, view.running_peak))


@dataclass(eq=False)
class _Cutoff:
    """One cutoff's certificate LP as a slot keeps it: the LP, its w
    columns, U, its last optimal vertex (the basis and the columns at their
    upper bound), that vertex's (point, bound) in pi
    (lp.parametric_vertex; None where B is singular), read again at each
    new vertex, and the last demand block _bracket water-filled, with its
    scenarios' offline peaks."""

    lp: LinearProgram
    w_cols: np.ndarray
    top: float
    basis: np.ndarray | None = None  # None until the LP is first solved
    at_upper: np.ndarray | None = None
    vertex: tuple | None = None
    peaks: tuple | None = None


@dataclass
class _WarmStart:
    """What one slot's bisection remembers between its steps.

    Each cutoff's LP is built once: between LP answers only the -pi
    objective terms, their constant and the w upper bounds U - floor/pi
    move, and they are written into the kept LP, whose standard form
    solve_lp reuses. U = max(d_ub, prefix) holds for the whole
    certification: every pi it evaluates is at least floor/v_ref, and
    v_ref <= U (to a rounding _future_requirement takes off). A cutoff's
    LP is grown by cr.grow_program from the cutoff before it, the slot's
    first from the empty program; growing carries the old LP's tableau
    and starts the new block at its water-fill optimum. A step whose
    cutoff's bracket decides it takes the bound, with no LP; any other
    step solves the LP from the tableau it keeps, so no step refactorizes
    a basis. Each kept LP holds its standard form and tableau until the
    slot ends. The cutoff that exceeded the budget last usually exceeds it
    again.

    A _WarmStart lives for one certification, and depleting_amount makes its
    own. What outlives a certification is its (ratio, early_exit), which
    _certify keeps per slot state; the LPs, tableaus and vertices go.
    """

    cutoffs: dict[int, _Cutoff] = field(default_factory=dict)
    binding: int | None = None


def _future_requirement(view: _SlotView, pi: float, kmax: int, warm: _WarmStart) -> float:
    """AOCR requirement beyond the constant term for one scenario cutoff,
    from its certificate LP."""
    if kmax <= view.t:
        return 0.0
    inst, t = view.instance, view.t
    if inventory_unbounded(inst):
        # no admissible benchmark spends the full inventory, so no scenario
        # imposes a requirement
        return -math.inf
    floor = max(view.running_peak, view.monthly_peak)
    # floor/pi <= U at every pi a certification evaluates, but for a rounding
    # where v_ref = U (no storage lowers the peak), which min takes off
    lb_u = min(floor / pi, scenario_top(inst, view.demands))
    cut = warm.cutoffs.get(kmax)
    if cut is None:
        # OnlineState.observe admits demands up to EPS_KWH above d_ub, so the
        # running peak can pass d_ub; x's box must not be inverted by that
        x_lb = min(max(inst.demand_lb, view.running_peak), inst.demand_ub)
        # grow, keeping each, the cutoffs from the nearest one built below
        built = max((k for k in warm.cutoffs if k < kmax), default=t)
        lp = warm.cutoffs[built].lp if built > t else empty_program()
        for k in range(built + 1, kmax + 1):
            lp, w_cols, top = grow_program(inst, view.demands, lp, k, x_lb, lb_u)
            lp.objective[: k - t] = 1.0
            cut = warm.cutoffs[k] = _Cutoff(lp, w_cols, top)
    else:
        cut.lp.set_upper(cut.w_cols, cut.top - lb_u)
    # worst future demand x_{t+1..kmax} beyond pi times the scenario
    # benchmarks u_i = top - w_i
    lp, top = cut.lp, cut.top
    lp.objective[cut.w_cols] = pi
    lp.objective_constant = -pi * top * len(cut.w_cols)
    res = solve_lp(lp)
    if res.status != OPTIMAL:
        # the program is feasible (all-slack basis) and bounded
        raise NumericalFailure(f"future-requirement LP ended {res.status}")
    if not (np.array_equal(res.basis, cut.basis) and np.array_equal(res.at_upper, cut.at_upper)):
        cut.vertex = parametric_vertex(lp, cut.w_cols, top, floor, inst.capacity_c)
    cut.basis, cut.at_upper = res.basis, res.at_upper
    return res.value


def _bracket(view: _SlotView, pi: float, cut: _Cutoff | None, low: float,
             high: float) -> float | None:
    """The cutoff's requirement at pi bounded from its kept vertex: its
    upper bound if below low, else its lower bound if above high, else
    None (also with no vertex). Both hold at every pi in exact
    arithmetic, rounding them about 1e-12 relative. Upper: the vertex's
    weak-duality bound, a column with no upper bound (a delta, or D with
    no rate limit) of width c, which its block's budget row implies.
    Lower: the objective at the feasible point x = p + q/pi, clipped to
    its box, with each scenario's benchmark water-filled (as
    cr._block_start seeds a block): sum x - sum_i max(pi v_i, floor), v_i
    the offline peak of [prefix, x_{t+1..i}, d_lb, ..., d_lb]."""
    if cut is None or cut.vertex is None:
        return None
    floor = max(view.running_peak, view.monthly_peak)
    inst, lp, point, bound = view.instance, cut.lp, cut.vertex[0], cut.vertex[1](pi)
    # comparisons are written so that a NaN decides nothing; the lower bound
    # is at most the upper
    if bound < low or not bound > high:
        return bound if bound < low else None
    t, size = view.t, len(cut.w_cols)  # one demand column and one w per scenario
    x = np.minimum(np.maximum(point[:size, 0] + point[:size, 1] / pi, lp.lb[:size]), lp.ub[:size])
    if cut.peaks is None or not np.array_equal(x, cut.peaks[0]):
        days = np.full((size, inst.horizon_T), inst.demand_lb)
        days[:, :t] = view.demands
        days[:, t : t + size] = np.where(np.tri(size, dtype=bool), x, inst.demand_lb)
        cut.peaks = x, offline_peak_values(inst, days)
    bound = float(x.sum() - np.maximum(pi * cut.peaks[1], floor).sum())
    return bound if bound > high else None


def _requirement(view: _SlotView, pi: float, budget: float, warm: _WarmStart) -> float:
    """Inventory needed to keep pi guaranteeable: the constant term plus the
    worst cutoff's requirement, floored at 0, as far as comparing it with
    budget needs. The search stops at the first cutoff that pushes it
    above budget, trying first the cutoff that did so last. A cutoff whose
    bracket puts the constant term plus it below budget - _band, or above
    budget + _band, takes that bound: a proof, its rounding far inside the
    band. Every other cutoff takes its LP answer, so each comparison close
    enough for rounding to matter is made on an LP answer. An infinite
    budget decides nothing by a bound: the value is exact."""
    const = _constant_term(view, pi)
    if const > budget:
        return const
    cutoffs = list(range(view.t + 1, view.instance.horizon_T + 1))
    if warm.binding is not None:
        cutoffs.remove(warm.binding)
        cutoffs.insert(0, warm.binding)
    band = _band(budget)
    worst = 0.0
    for kmax in cutoffs:
        # an infinite budget makes budget - band NaN, which decides nothing
        value = _bracket(view, pi, warm.cutoffs.get(kmax), budget - band - const,
                         budget + band - const)
        if value is None:
            value = _future_requirement(view, pi, kmax, warm)
        worst = max(worst, value)
        if const + worst > budget:
            warm.binding = kmax
            break
    return const + worst


def _band(budget: float) -> float:
    """How far a requirement may sit from budget for rounding to decide
    the comparison: 1e-8 max(1, budget)."""
    return 1e-8 * max(1.0, budget)


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
    can force the first slot's certificate past the daily optimum. At a tie,
    where a peak the policy set at prev_ratio makes the lower endpoint
    prev_ratio (to 1e-9, the slack PolicyRun's nonincreasing check allows),
    a need above the inventory by no more than _band, where rounding
    decides, is prev_ratio's own certificate missed by rounding: the lower
    endpoint is returned, where the bracket would otherwise run up to the
    demand ceiling and certify a ratio above prev_ratio. Otherwise the loop
    keeps the invariant that the upper endpoint is certified feasible and
    returns it; every step decides on an LP answer or on a proof
    (_requirement). A never-discharging policy keeps every peak at or below
    the demand ceiling, so demand_ub / v is certifiable and serves as the
    upper endpoint whenever prev_ratio sits below the floor. prev_ratio is
    a seed, not a certificate (a caller's initial ratio can sit below pi*):
    where no step lowered it, its requirement is evaluated after the
    bisection, against the inventory plus _band as at a tie, and if it
    exceeds that the bracket runs up from prev_ratio to the demand ceiling.
    Every prev_ratio at or above pi* certifies, the requirement being
    nonincreasing in pi, so such a slot returns it as before.

    run_anytime and anytime_ratio call it through _certify, so each slot
    state is certified once while _certify keeps it.
    """
    if view.v_ref <= EPS_KWH:
        # only reachable when the inventory matches the whole lower-bound
        # demand (c = T d_lb), where no ratio is defined; kept as a hard stop
        raise DegenerateOfflinePeak(f"reference offline peak {view.v_ref} at slot {view.t}")
    warm = _WarmStart()
    pi_lb = max(1.0, max(view.running_peak, view.monthly_peak) / view.v_ref)
    budget = view.remaining
    if prev_ratio <= pi_lb <= prev_ratio + 1e-9:  # a tie
        budget += _band(budget)
    if not _requirement(view, pi_lb, budget, warm) > budget:
        return pi_lb, True
    pi_ub = prev_ratio
    if prev_ratio > pi_lb:
        pi_ub = _bisect(view, pi_lb, prev_ratio, epsilon, warm)
    budget = view.remaining + _band(view.remaining)
    if prev_ratio <= pi_lb or (pi_ub == prev_ratio
                               and _requirement(view, prev_ratio, budget, warm) > budget):
        # prev_ratio does not certify: bisect up from it, or from the floor
        # above it, to the demand ceiling
        pi_lb = max(pi_lb, prev_ratio)
        pi_ub = _bisect(view, pi_lb, max(pi_lb + epsilon, view.instance.demand_ub / view.v_ref),
                        epsilon, warm)
    return pi_ub, False


def _bisect(view: _SlotView, pi_lb: float, pi_ub: float, epsilon: float,
            warm: _WarmStart) -> float:
    """Bisect [pi_lb, pi_ub] down to epsilon, keeping pi_ub certified, or
    until the endpoints are adjacent floats (an epsilon below the float
    spacing at the ratio), where the midpoint rounds onto one of them."""
    while pi_ub - pi_lb >= epsilon and pi_lb < (mid := 0.5 * (pi_lb + pi_ub)) < pi_ub:
        if _requirement(view, mid, view.remaining, warm) > view.remaining:
            pi_lb = mid
        else:
            pi_ub = mid
    return pi_ub


MEMO_SIZE = 4096
"""Slot states _certify keeps, least recently used out first: one rate's
anytime pass over a 90-day T=20 day set (1,800 states) fits."""


@functools.lru_cache(maxsize=MEMO_SIZE, typed=True)
def _certify(view: _SlotView, prev_ratio: float, epsilon: float) -> tuple[float, bool]:
    """_certified_ratio, memoised on the slot state: the view, as _SlotView
    compares views, with prev_ratio and epsilon as floats of one type (both
    positive wherever OnlineState and PolicyOptions admit them, so float
    equality is bit equality).

    Until the depleting policy first harvests it certifies the states the
    plain one did, so on one instance and day the second run is served from
    here. A stored answer passed every gate of _certified_ratio, so a served
    run is bit-identical to a computed one; a raise is never stored.
    lru_cache is thread-safe (two threads that miss on one state both
    compute it) and holds each stored view until it is evicted.
    """
    return _certified_ratio(view, prev_ratio, epsilon)


def anytime_ratio(instance: Instance, state: OnlineState, d_t: float,
                  epsilon: float = PolicyOptions.bisection_epsilon) -> float:
    """Smallest ratio still guaranteeable after observing d_t.

    state carries the t-1 committed slots plus prev_ratio, the ceiling of the
    bisection bracket. A fresh state (prev_ratio still infinite) is seeded
    with the instance's optimal competitive ratio, matching the convention
    that slot 0 certifies exactly that ratio. Monthly mode is driven by
    state.monthly_peak.
    """
    state.admit(d_t, instance)
    if not is_positive(epsilon):
        raise ValueError("epsilon must be a positive finite number")
    view = _slot_view(instance, state, float(d_t))
    return _certify(view, _seeded(instance, state.prev_ratio), epsilon)[0]


def depleting_amount(
    instance: Instance, state: OnlineState, pi_t: float, base_delta: float
) -> float:
    """Discharge for the slot raised by the redundant inventory.

    The slack is the remaining inventory minus the worst-case inventory needed
    to keep pi_t guaranteeable from this slot on; spending it cannot break the
    pi_t guarantee. Clamped to the slot's hard feasibility caps only. A
    materially negative slack means the certification engine disagrees with
    itself and is raised as NegativeSlack. pi_t below 1, infinite or NaN, a
    base_delta below 0, infinite or NaN, a state of another instance, and a
    pi_t the standing peak already breaks raise ValueError: a pi_t below
    floor / U, floor = max(running peak, monthly peak) and U = max(d_ub,
    observed demands), by more than 1e-9 (the ratio slack of a tie in
    _certified_ratio; a certified pi_t sits only a rounding below it, where
    no storage lowers the peak).
    """
    _check_ratio(pi_t)
    if not is_at_least(base_delta, 0.0):
        raise ValueError(f"base_delta must be >= 0 and finite, got {base_delta}")
    if instance != state.instance:
        raise ValueError("the state belongs to another instance")
    if len(state.observed) != len(state.actions) + 1:
        raise ValueError("state must be mid-slot: observe d_t before depleting")
    view = _slot_view(instance, state)
    floor, top = max(view.running_peak, view.monthly_peak), scenario_top(instance, view.demands)
    if pi_t < floor / top - 1e-9:
        raise ValueError(f"the standing peak {floor} breaks pi_t = {pi_t}: it needs at least "
                         f"{floor / top}")
    slack = view.remaining - _requirement(view, pi_t, math.inf, _WarmStart())
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

    CR-Pursuit at the smallest ratio guaranteeable at each slot, certified
    there; in depleting mode the discharge is raised by the redundant slack
    at slots where the harvest cannot disturb later certificates. The ratio
    trajectory is nonincreasing by construction of the bisection bracket.
    """
    options = options or PolicyOptions()
    state = OnlineState(instance, monthly_peak=options.monthly_peak,
                        prev_ratio=_seeded(instance, options.initial_ratio))
    return _pursue(instance, demand, state,
                   lambda view, prev: _certify(view, prev, options.bisection_epsilon)[0],
                   harvest=options.mode == MODE_ANYTIME_DEPLETING)
