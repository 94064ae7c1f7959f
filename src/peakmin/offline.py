"""Exact offline optimum for the peak-demand minimization problem, plus the
cost functional of the weighted (demand-charge) variant.

The offline optimum admits a closed form: with v the water-filling threshold
solving sum_t [d_t - v]^+ = c and M = max_t [d_t - rate - v]^+ the rate
correction, the unique optimal schedule is delta_t = [d_t - M - v]^+.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EPS_KWH, DemandProfile, DischargeSchedule, Instance, check_schedules, is_real
from .errors import BudgetExceedsTotalDemand, InfeasibleSchedule, InvalidCmdWeights


def water_fill_threshold(demands, budget):
    """Level v such that the total demand above v equals the budget.

    Exact sort-and-breakpoint evaluation (no bisection): over demands sorted
    descending with prefix sums S_k, v = max_k (S_k - budget)/k, clamped at
    S_1 = max(demands), which a zero budget returns exactly (unclamped,
    S_k/k can round an ulp above it on equal demands). Works along the last
    axis: a vector gives a float, an (N, T) matrix one level per row, against
    one budget for every row or an array of N budgets, one per row. No
    demand at all (an empty vector or an (N, 0) matrix) and a NaN or
    infinite demand raise ValueError.
    """
    d = np.asarray(demands, dtype=float)
    if d.size == 0:
        raise ValueError("demands must be nonempty")
    prefix = np.cumsum(np.sort(d)[..., ::-1], axis=-1)
    v = _water_level(prefix.T, budget)
    return float(v) if d.ndim == 1 else v


def _water_level(prefix: np.ndarray, budget):
    """water_fill_threshold's checks and level from the prefix sums S_k of
    demands sorted descending, laid out along axis 0: a vector, or a (T, N)
    matrix with one column per row of demands, against one budget or an
    array of N. S_1 is the largest demand and S_T the total, so the clamp
    and the checks read rows of prefix, and the level is a max across them."""
    per_row = isinstance(budget, np.ndarray)
    # min propagates NaN, so this rejects a NaN budget too
    if not (budget.min() if per_row else budget) >= 0:
        raise BudgetExceedsTotalDemand(f"budget must be >= 0, got {budget}")
    # a NaN or infinite demand makes the totals, and their sum, NaN or infinite
    b, total = budget, prefix[-1]
    if not math.isfinite(total if prefix.ndim == 1 else total.sum()):
        raise ValueError("demands must be finite")
    k = np.arange(1.0, len(prefix) + 1.0)
    if prefix.ndim > 1:
        # checked at the column whose budget most exceeds its total
        col = np.argmax(budget - total) if per_row else np.argmin(total)
        b, total, k = (budget[col] if per_row else budget), total[col], k[:, None]
    if b > 0 and b > total + EPS_KWH:
        raise BudgetExceedsTotalDemand(f"budget {b} > total demand {total}")
    v = ((prefix - budget) / k).max(axis=0)
    # a vector's level and S_1 are scalars, which min clamps faster than np.minimum
    return min(v, prefix[0]) if prefix.ndim == 1 else np.minimum(v, prefix[0])


def rate_corrected_cut(demands: np.ndarray, v, rate_limit: float | None,
                       top=None) -> np.ndarray:
    """Optimal discharge [d - M - v]^+ at water level v.

    M = max_t [d_t - rate_limit - v]^+ is the rate correction (0 without a
    rate limit), taken as [top - rate_limit - v]^+ from the largest demand
    top: rounding is monotone, so that is the max bit for bit. Works along
    the last axis like water_fill_threshold: v is a float for a vector, one
    level per row for an (N, T) matrix. top defaults to each row's own
    largest demand, demands.max(axis=-1, keepdims=True); a caller that cuts
    only the first slots of longer rows passes theirs, in that shape.
    """
    if demands.ndim > 1:
        v = v[:, None]
    if rate_limit is None:
        return np.maximum(demands - v, 0.0)
    if top is None:
        top = demands.max(axis=-1, keepdims=True)
    m = np.maximum(top - rate_limit - v, 0.0)
    return np.maximum(demands - m - v, 0.0)


@dataclass(frozen=True)
class OfflineSolution:
    """Water level v, the optimal schedule, and the optimal peak max(d_t - delta_t)."""

    schedule: DischargeSchedule
    threshold_v: float
    peak: float


def solve_offline_pmd(instance: Instance, demand: DemandProfile) -> OfflineSolution:
    """Closed-form offline optimum; peak is computed from the schedule, not from v."""
    d = demand.values
    v = water_fill_threshold(d, instance.capacity_c)
    schedule = DischargeSchedule(instance, demand, rate_corrected_cut(d, v, instance.rate_limit))
    peak = float((d - schedule.values).max())
    return OfflineSolution(schedule=schedule, threshold_v=v, peak=peak)


def offline_peaks(instance: Instance, values: np.ndarray, capacity=None) -> np.ndarray:
    """solve_offline_pmd's peak of every day of an (N, T) matrix, bit for bit,
    from one water-fill and one check of the N optimal schedules; capacity is
    None for the instance's, or one per row."""
    budget = instance.capacity_c if capacity is None else capacity
    cut = rate_corrected_cut(values, water_fill_threshold(values, budget), instance.rate_limit)
    return (values - check_schedules(instance, values, cut, capacity)).max(axis=1)


def offline_peak(instance: Instance, demand: DemandProfile) -> float:
    return solve_offline_pmd(instance, demand).peak


def offline_peak_values(instance: Instance, values: np.ndarray):
    """offline_peak on a raw vector, or row by row on an (N, T) matrix; fast
    path for policy inner loops and oracle tables."""
    v = water_fill_threshold(values, instance.capacity_c)
    if instance.rate_limit is None:
        return v
    peaks = (values - rate_corrected_cut(values, v, instance.rate_limit)).max(axis=-1)
    return float(peaks) if values.ndim == 1 else peaks


@dataclass(frozen=True)
class CmdWeights:
    """Per-slot energy prices w_e ($/kWh) and the peak price w_p ($/kWh).

    Construction enforces core's number rule on every weight and
    w_p >= T * max_{i,j}(w_e_i - w_e_j); under that assumption the weighted
    problem shares the plain problem's offline optimum.
    """

    energy_weights: tuple[float, ...]
    peak_weight: float

    def __post_init__(self):
        weights = (*self.energy_weights, self.peak_weight)
        if not all(map(is_real, weights)):
            raise InvalidCmdWeights(f"weights must be finite numbers, got {weights}")
        w = np.asarray(self.energy_weights, dtype=float)
        if len(w) == 0:
            raise InvalidCmdWeights("energy_weights must be nonempty")
        spread = float(w.max() - w.min())
        bound = len(w) * spread
        if self.peak_weight < bound - 1e-12:
            raise InvalidCmdWeights(
                f"peak_weight {self.peak_weight} < T*max spread {bound}"
            )
        object.__setattr__(self, "energy_weights", tuple(float(x) for x in w))


def evaluate_cmd_cost(weights: CmdWeights, demand: DemandProfile, schedule: DischargeSchedule) -> float:
    """sum_t w_e_t (d_t - delta_t) + w_p * max_t (d_t - delta_t)."""
    w = np.asarray(weights.energy_weights, dtype=float)
    if len(w) != len(demand):
        raise InfeasibleSchedule(
            f"weights length {len(w)} != profile length {len(demand)}"
        )
    purchased = demand.values - schedule.values
    return float(w @ purchased + weights.peak_weight * purchased.max())
