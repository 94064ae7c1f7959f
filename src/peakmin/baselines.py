"""Comparison policies: thresholds, equal-split rules, and receding horizon.

None of these carry a performance certificate; they exist to benchmark the
ratio-pursuit policies on recorded and synthetic traces. All of them run
causally. Each policy is one kernel over an (N, T) matrix of days
(threshold_actions, equal_discharge_actions, equal_ratio_actions,
rhc_actions) that gives the amount every day wants at slot t;
_greedy_actions, the one slot loop, caps it at Instance.slot_cap and the
remaining inventory and commits it. Each kernel takes an optional capacity,
one per row, in place of the instance's, and its policy argument
(threshold, ratio, or the future an rhc window assumes after its first
slot) for every row or one per row, so one call can sweep every capacity
rate of an experiment; a clairvoyant rhc run passes the days themselves as
its future. baseline_peaks checks a kernel's (N, T) actions in one call
(core.check_schedules) and returns each day's final peak. The per-day run_*
functions run a kernel on one day and return its PolicyRun, with an empty
ratio trajectory.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import DemandProfile, Instance, check_schedules
from .offline import _water_level, rate_corrected_cut
from .offline import water_fill_threshold  # noqa: F401 (wrapped by the tracer)
from .online import PolicyRun

FUTURE_UPPER = "upper_bound"
FUTURE_LOWER = "lower_bound"
FUTURE_MIDPOINT = "midpoint"
_FUTURE_VIEWS = (FUTURE_UPPER, FUTURE_LOWER, FUTURE_MIDPOINT)


def is_window(value) -> bool:
    """A look-ahead RhcConfig takes: None, or an integer >= 1 that is no bool."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    return value is None or (integral and value >= 1)


@dataclass(frozen=True)
class RhcConfig:
    """Receding-horizon settings: look-ahead length and the assumed future.

    window=None resolves to ceil(T/4) at run time. future_view picks the
    constant stand-in for unobserved demands: the demand ceiling, the floor,
    or their midpoint.
    """

    window: int | None = None
    future_view: str = FUTURE_MIDPOINT

    def __post_init__(self):
        if not is_window(self.window):
            raise ValueError(f"window must be an integer >= 1, got {self.window!r}")
        if self.future_view not in _FUTURE_VIEWS:
            raise ValueError(
                f"future_view must be one of {_FUTURE_VIEWS}, got {self.future_view!r}"
            )

    def resolve_window(self, horizon: int) -> int:
        w = self.window if self.window is not None else math.ceil(horizon / 4)
        if w > horizon:
            raise ValueError(f"window {w} exceeds horizon {horizon}")
        return w

    def future_value(self, instance: Instance) -> float:
        if self.future_view == FUTURE_UPPER:
            return instance.demand_ub
        if self.future_view == FUTURE_LOWER:
            return instance.demand_lb
        return 0.5 * (instance.demand_lb + instance.demand_ub)


def _column(value) -> np.ndarray:
    """One value for every row, or one per row, as a column of a day matrix."""
    return np.reshape(value, (-1, 1))


def _inventory(instance: Instance, values: np.ndarray, capacity) -> np.ndarray:
    """Each row's starting inventory: its capacity, or the instance's."""
    return np.full(len(values), instance.capacity_c if capacity is None else capacity)


def _greedy_actions(instance: Instance, values: np.ndarray, wanted, capacity) -> np.ndarray:
    """The one slot loop: slot t of each row (a day of the (N, T) matrices)
    discharges wanted(t, remaining), capped at Instance.slot_cap and at the
    row's remaining inventory."""
    caps = instance.slot_cap(values)
    remaining = _inventory(instance, values, capacity)
    actions = np.empty(values.shape)
    for t in range(values.shape[1]):
        actions[:, t] = np.minimum(np.minimum(wanted(t, remaining), caps[:, t]), remaining)
        remaining -= actions[:, t]
    return actions


def threshold_actions(instance: Instance, values: np.ndarray, threshold,
                      capacity=None) -> np.ndarray:
    """Threshold policy on an (N, T) day matrix: each day discharges each slot
    down to the threshold until its storage runs out."""
    if not (np.asarray(threshold) >= 0).all():  # written so that NaN is rejected too
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    excess = np.maximum(0.0, values - _column(threshold))
    return _greedy_actions(instance, values, lambda t, _: excess[:, t], capacity)


def equal_discharge_actions(instance: Instance, values: np.ndarray, capacity=None) -> np.ndarray:
    """Equal-discharge policy on an (N, T) day matrix: the even split c/T each
    slot; unspent quota is not carried."""
    quota = _inventory(instance, values, capacity) / instance.horizon_T
    return _greedy_actions(instance, values, lambda t, _: quota, capacity)


def equal_ratio_actions(instance: Instance, values: np.ndarray, capacity_rate,
                        capacity=None) -> np.ndarray:
    """Equal-ratio policy on an (N, T) day matrix: a fixed fraction of each
    slot's demand.

    The fraction is the storage capacity rate: capacity over average total
    consumption, supplied by the caller (the experiment harness derives it
    from the recorded days).
    """
    fraction = np.asarray(capacity_rate)
    if not ((0.0 <= fraction) & (fraction <= 1.0)).all():
        raise ValueError(f"capacity_rate must be within [0, 1], got {capacity_rate}")
    share = _column(capacity_rate) * values
    return _greedy_actions(instance, values, lambda t, _: share[:, t], capacity)


def _rank_bounds(tail: np.ndarray) -> np.ndarray:
    """Rows +inf, then tail (the later slots of a window, sorted descending,
    one row per slot and one column per day), then -inf. The window's first
    demand d clipped between each row and the one above it lands in rank
    order: min(max(d, bounds[1:]), bounds[:-1]) is the window sorted
    descending. The bounds of a constant tail serve every shorter window
    too: a window of `size` slots clips d between bounds[-size:] and
    bounds[:size]."""
    bounds = np.full((len(tail) + 2, tail.shape[1]), np.inf)
    bounds[-1] = -np.inf
    bounds[1:-1] = tail
    return bounds


def rhc_actions(instance: Instance, values: np.ndarray, window, future,
                capacity=None) -> np.ndarray:
    """Receding horizon on an (N, T) day matrix: each slot solves its window
    offline and commits the first action.

    window is the look-ahead as RhcConfig takes it (None: ceil(T/4)); future,
    one value, one per row or an (N, T) matrix f, is what the window assumes
    after its first slot. Slot t of every day sees [d_t, f_{t+1}, ...,
    f_{t+window-1}], truncated at the horizon, and optimizes it against that
    day's remaining inventory, capped at what the window's slots can absorb
    so the water-fill stays defined. Passing the days as future makes a
    clairvoyant run (a test mode: with window=T it is the offline optimum).
    """
    window = RhcConfig(window).resolve_window(instance.horizon_T)
    future = np.asarray(future, dtype=float)
    # a constant future is every window's tail, sorted already
    fixed = None if future.ndim == 2 else _rank_bounds(
        np.broadcast_to(future, (window - 1, len(values))))
    future = np.broadcast_to(future if future.ndim == 2 else _column(future), values.shape)

    def first_cut(t, remaining):
        win = future[:, t : t + window].copy()
        win[:, 0] = values[:, t]
        # the windows sorted descending and laid out window-major, one row
        # per rank and one column per day, then summed by row adds: numpy
        # reduces across the many days far faster than along a few slots
        size = win.shape[1]
        bounds = fixed if fixed is not None else _rank_bounds(np.sort(win[:, 1:])[:, ::-1].T)
        prefix = np.minimum(np.maximum(win[:, 0], bounds[-size:]), bounds[:size])
        for k in range(1, size):
            prefix[k] += prefix[k - 1]
        v = _water_level(prefix, np.minimum(remaining, instance.slot_cap(win).sum(axis=1)))
        return rate_corrected_cut(win[:, :1], v, instance.rate_limit, prefix[:1].T)[:, 0]

    return _greedy_actions(instance, values, first_cut, capacity)


def baseline_peaks(kernel, instance: Instance, values: np.ndarray, *args,
                   **kwargs) -> np.ndarray:
    """Each day's final peak max_t(d_t - delta_t) under kernel(instance,
    values, *args, **kwargs) on an (N, T) day matrix, as PolicyRun.from_actions
    takes it from the actions as given. The (N, T) actions are checked in one
    call (against kwargs' capacity, if any)."""
    actions = kernel(instance, values, *args, **kwargs)
    check_schedules(instance, values, actions, kwargs.get("capacity"))
    return (values - actions).max(axis=1)


def _day_run(kernel, instance: Instance, demand: DemandProfile, *args) -> PolicyRun:
    return PolicyRun.from_actions(instance, demand, kernel(instance, demand.values[None], *args)[0])


def run_threshold(instance: Instance, demand: DemandProfile, threshold: float) -> PolicyRun:
    """Discharge each slot down to the threshold until the storage runs out."""
    return _day_run(threshold_actions, instance, demand, threshold)


def run_equal_discharge(instance: Instance, demand: DemandProfile) -> PolicyRun:
    """Discharge the even split c/T each slot; unspent quota is not carried."""
    return _day_run(equal_discharge_actions, instance, demand)


def run_equal_ratio(instance: Instance, demand: DemandProfile, capacity_rate: float) -> PolicyRun:
    """Discharge a fixed fraction (the storage capacity rate) of each slot's demand."""
    return _day_run(equal_ratio_actions, instance, demand, capacity_rate)


def run_rhc(instance: Instance, demand: DemandProfile, config: RhcConfig | None = None,
            clairvoyant: bool = False) -> PolicyRun:
    """Receding horizon on one day: solve the window offline, commit the first
    action. The window assumes config's future view after its first slot,
    or, when clairvoyant, the day's own demands."""
    config = config or RhcConfig()
    future = demand.values[None] if clairvoyant else config.future_value(instance)
    return _day_run(rhc_actions, instance, demand, config.window, future)
