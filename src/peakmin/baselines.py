"""Comparison policies: thresholds, equal-split rules, and receding horizon.

None of these carry a performance certificate; they exist to benchmark the
ratio-pursuit policies on recorded and synthetic traces. All of them run
causally and emit the same PolicyRun record as the certified policies, with
an empty ratio trajectory.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import DemandProfile, Instance
from .offline import rate_corrected_cut, water_fill_threshold
from .online import PolicyRun

FUTURE_UPPER = "upper_bound"
FUTURE_LOWER = "lower_bound"
FUTURE_MIDPOINT = "midpoint"
_FUTURE_VIEWS = (FUTURE_UPPER, FUTURE_LOWER, FUTURE_MIDPOINT)


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
        if self.window is not None and (isinstance(self.window, bool) or not isinstance(
                self.window, numbers.Integral) or self.window < 1):
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


def run_threshold(instance: Instance, demand: DemandProfile, threshold: float) -> PolicyRun:
    """Discharge each slot down to the threshold until the storage runs out."""
    if not threshold >= 0:  # written so that NaN is rejected too
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    remaining = instance.capacity_c
    actions = []
    for d_t in demand.values:
        delta = min(max(0.0, float(d_t) - threshold), instance.slot_cap(d_t), remaining)
        actions.append(delta)
        remaining -= delta
    return PolicyRun.from_actions(instance, demand, actions)


def run_equal_discharge(instance: Instance, demand: DemandProfile) -> PolicyRun:
    """Discharge the even split c/T each slot; unspent quota is not carried."""
    quota = instance.capacity_c / instance.horizon_T
    remaining = instance.capacity_c
    actions = []
    for d_t in demand.values:
        delta = min(quota, instance.slot_cap(d_t), remaining)
        actions.append(delta)
        remaining -= delta
    return PolicyRun.from_actions(instance, demand, actions)


def run_equal_ratio(instance: Instance, demand: DemandProfile, capacity_rate: float) -> PolicyRun:
    """Discharge a fixed fraction of each slot's demand.

    The fraction is the storage capacity rate: capacity over average total
    consumption, supplied by the caller (the experiment harness derives it
    from the recorded days).
    """
    if not 0.0 <= capacity_rate <= 1.0:
        raise ValueError(f"capacity_rate must be within [0, 1], got {capacity_rate}")
    remaining = instance.capacity_c
    actions = []
    for d_t in demand.values:
        delta = min(capacity_rate * float(d_t), instance.slot_cap(d_t), remaining)
        actions.append(delta)
        remaining -= delta
    return PolicyRun.from_actions(instance, demand, actions)


def _window_first_action(instance: Instance, window: np.ndarray, budget: float) -> float:
    """First slot of the exact offline solution on a window profile.

    The window is granted the whole budget, capped at what its slots can
    physically absorb so the water-fill stays defined; a cap of zero or a
    nonpositive level simply discharges the first slot as far as allowed.
    """
    caps = window if instance.rate_limit is None else np.minimum(window, instance.rate_limit)
    spendable = min(budget, float(caps.sum()))
    v = water_fill_threshold(window, spendable)
    first = float(rate_corrected_cut(window, v, instance.rate_limit)[0])
    return min(first, instance.slot_cap(float(window[0])), budget)


def run_rhc(
    instance: Instance,
    demand: DemandProfile,
    config: RhcConfig | None = None,
    clairvoyant: bool = False,
) -> PolicyRun:
    """Receding horizon: solve the window offline, commit the first action.

    Each slot sees [d_t, f, ..., f] where f is the configured future view,
    truncated at the end of the horizon, and optimizes it against the full
    remaining inventory. clairvoyant=True replaces f with the true upcoming
    demands (a test mode: with window=T it reproduces the offline optimum).
    """
    config = config or RhcConfig()
    horizon = instance.horizon_T
    window = config.resolve_window(horizon)
    fill = config.future_value(instance)
    values = demand.values
    remaining = instance.capacity_c
    actions = []
    for t in range(horizon):
        length = min(window, horizon - t)
        if clairvoyant:
            win = values[t : t + length].astype(float)
        else:
            win = np.full(length, fill)
            win[0] = values[t]
        delta = _window_first_action(instance, win, remaining)
        actions.append(delta)
        remaining -= delta
    return PolicyRun.from_actions(instance, demand, actions)
