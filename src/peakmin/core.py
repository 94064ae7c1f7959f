"""Shared domain types: problem instances, demand profiles, schedules, online state.

Energies are kWh per slot throughout. Equality comparisons on energies use an
absolute tolerance of 1e-9 kWh (simplex output noise); the constant lives here
as EPS_KWH so every module agrees on it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CapacityExceedsMinDemand,
    DemandOutOfBounds,
    InfeasibleSchedule,
    InvertedBounds,
    NonPositiveBound,
    PrefixOutOfBounds,
    ZeroHorizon,
)

EPS_KWH = 1e-9


def is_real(value) -> bool:
    """The one scalar number rule: a finite real number (not a bool, Python's or numpy's); NaN fails."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and -math.inf < value < math.inf


def is_at_least(value, floor: float) -> bool:
    """A real number (not a bool) in [floor, inf); NaN fails."""
    return is_real(value) and floor <= value


def is_positive(value) -> bool:
    """A real number (not a bool) in (0, inf); NaN fails."""
    return is_at_least(value, 0.0) and value > 0


def _admissible(instance: Instance, demands):
    """The demand rule d_lb - EPS_KWH <= d <= d_ub + EPS_KWH, on a float or per entry; NaN fails."""
    return (instance.demand_lb - EPS_KWH <= demands) & (demands <= instance.demand_ub + EPS_KWH)


def check_numbers(entries, what: str) -> None:
    """The number rule for kWh: raise ValueError naming each type among entries
    (an ndarray, by its dtype, or scalars) that is not a real number; a bool,
    numpy's too, is none either, though float() reads it, as it reads "1.5"."""
    types = {entries.dtype.type} if isinstance(entries, np.ndarray) else set(map(type, entries))
    bad = [kind.__name__ for kind in types
           if not issubclass(kind, numbers.Real) or issubclass(kind, (bool, np.bool_))]
    if bad:
        raise ValueError(f"{what} must be numbers, got {', '.join(sorted(bad))}")


def _as_float_vector(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError("expected a 1-D vector of kWh values")
    check_numbers(values, "kWh values")
    return arr


@dataclass(frozen=True)
class Instance:
    """Static problem data.

    capacity_c   total storage inventory for the period (kWh)
    rate_limit   per-slot discharge cap (kWh); None means unbounded
    horizon_T    number of slots in the operating period
    demand_lb    lower demand bound d_lb > 0 (kWh)
    demand_ub    upper demand bound d_ub >= d_lb (kWh)
    """

    capacity_c: float
    rate_limit: float | None
    horizon_T: int
    demand_lb: float
    demand_ub: float

    def __post_init__(self):
        # NaN slips past every comparison below and an infinite bound makes
        # no instance, so the number rule turns them away first (None only
        # as the unbounded rate_limit); a checked field is stored as its
        # annotation's type (horizon_T: integral)
        for name in ("capacity_c", "rate_limit", "demand_lb", "demand_ub"):
            value = getattr(self, name)
            if value is not None or name != "rate_limit":
                if not is_real(value):
                    raise NonPositiveBound(f"{name} must be a finite number, got {value}")
                object.__setattr__(self, name, float(value))
        T = self.horizon_T
        if not is_at_least(T, 1) or int(T) != T:
            raise ZeroHorizon(f"horizon_T must be a positive integer, got {T}")
        object.__setattr__(self, "horizon_T", int(T))
        if self.demand_lb <= 0:
            raise NonPositiveBound(f"demand_lb must be > 0, got {self.demand_lb}")
        if self.demand_ub < self.demand_lb:
            raise InvertedBounds(f"demand_ub {self.demand_ub} < demand_lb {self.demand_lb}")
        if self.rate_limit is not None and self.rate_limit <= 0:
            raise NonPositiveBound(f"rate_limit must be > 0 when present, got {self.rate_limit}")
        if self.capacity_c < 0:
            raise NonPositiveBound(f"capacity_c must be >= 0, got {self.capacity_c}")
        # standing assumption: the storage can never cover the whole period
        # by more than the minimum demand supplies
        if self.capacity_c > self.horizon_T * self.demand_lb + EPS_KWH:
            raise CapacityExceedsMinDemand(
                f"capacity_c {self.capacity_c} > horizon_T*demand_lb "
                f"{self.horizon_T * self.demand_lb}"
            )

    def slot_cap(self, demand):
        """Hard per-slot discharge cap min(rate_limit, d_t), of a float or of
        each entry of an array; the demand itself when rate_limit is None."""
        return demand if self.rate_limit is None else np.minimum(demand, self.rate_limit)


# a second name for Instance, which checks and normalizes its own fields
validate_instance = Instance


class DemandProfile:
    """Length-T vector of per-slot demands, bound-checked against an Instance."""

    __slots__ = ("values",)

    def __init__(self, instance: Instance, values):
        self.values = check_demands(instance, _as_float_vector(values))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __repr__(self) -> str:
        return f"DemandProfile({self.values.tolist()})"


def check_demands(instance: Instance, demands: np.ndarray) -> np.ndarray:
    """Raise DemandOutOfBounds unless each row of demands (a length-T vector
    or an (N, T) matrix) has horizon_T entries, each within EPS_KWH of the
    demand bounds; return them clipped to the bounds, read-only. The first
    bad row is named as DemandProfile names it alone."""
    T = instance.horizon_T
    if demands.shape[-1] != T:
        raise DemandOutOfBounds(f"profile length {demands.shape[-1]} != horizon_T {T}")
    lo, hi = instance.demand_lb, instance.demand_ub
    rows = demands.reshape(-1, T)
    inside = _admissible(instance, rows)
    if not inside.all():
        i = int(inside.all(axis=1).argmin())
        raise DemandOutOfBounds(f"demand entries outside [{lo}, {hi}]: {rows[i][~inside[i]]}")
    clipped = np.clip(demands, lo, hi)
    clipped.flags.writeable = False
    return clipped


def check_schedules(instance: Instance, demands: np.ndarray, actions: np.ndarray,
                    capacity=None) -> np.ndarray:
    """Raise InfeasibleSchedule unless no discharge is negative or NaN, none
    exceeds min(rate_limit, d_t) and the total is at most capacity_c (or
    capacity, one per row); return the actions clipped at 0. On an (N, T)
    matrix the first bad row is named as DischargeSchedule would name it alone."""
    if actions.shape[-1] != instance.horizon_T:
        raise InfeasibleSchedule(
            f"schedule length {actions.shape[-1]} != horizon_T {instance.horizon_T}"
        )
    caps = demands if instance.rate_limit is None else np.minimum(demands, instance.rate_limit)
    rows = actions.reshape(-1, instance.horizon_T)
    totals = rows.sum(axis=1)
    # every check is written so that a NaN fails it
    negative = ~(rows >= -EPS_KWH).all(axis=1)
    over_cap = ~(actions <= caps + EPS_KWH).reshape(rows.shape).all(axis=1)
    capacity = instance.capacity_c if capacity is None else capacity
    overdrawn = ~(totals <= capacity + EPS_KWH)
    bad = negative | over_cap | overdrawn
    if bad.any():
        i = int(bad.argmax())
        if negative[i]:
            raise InfeasibleSchedule(f"negative or NaN discharge: {rows[i].min()}")
        if over_cap[i]:
            raise InfeasibleSchedule("discharge exceeds min(rate_limit, d_t) in some slot")
        raise InfeasibleSchedule(
            f"total discharge {totals[i]} exceeds capacity "
            f"{float(np.broadcast_to(capacity, totals.shape)[i])}"
        )
    return np.clip(actions, 0.0, None)


class DischargeSchedule:
    """Length-T vector of discharge decisions, feasibility-checked on construction."""

    __slots__ = ("values",)

    def __init__(self, instance: Instance, demand: DemandProfile, values):
        arr = check_schedules(instance, demand.values, _as_float_vector(values))
        arr.flags.writeable = False
        self.values = arr

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return f"DischargeSchedule({self.values.tolist()})"


def reference_profile(instance: Instance, prefix) -> DemandProfile:
    """Observed prefix d_1..d_t padded with d_lb out to the horizon."""
    pre = _as_float_vector(prefix)
    t = len(pre)
    if not 1 <= t <= instance.horizon_T:
        raise PrefixOutOfBounds(f"prefix length {t} outside 1..{instance.horizon_T}")
    try:
        return DemandProfile(instance, reference_values(instance, pre))
    except DemandOutOfBounds as exc:
        raise PrefixOutOfBounds(f"prefix {exc}") from None


def reference_values(instance: Instance, prefix: np.ndarray) -> np.ndarray:
    """Unchecked fast path of reference_profile for policy inner loops."""
    full = np.full(instance.horizon_T, instance.demand_lb, dtype=float)
    full[: len(prefix)] = prefix
    return full


@dataclass
class OnlineState:
    """Causal state owned by a single policy run (single-writer).

    observe(d_t) then commit(delta_t) advance the state one slot. Between the
    two calls the state is mid-slot: `observed` already holds d_t while
    `actions` does not yet hold delta_t.
    """

    instance: Instance
    monthly_peak: float = 0.0
    prev_ratio: float = float("inf")
    observed: list[float] = field(default_factory=list)
    actions: list[float] = field(default_factory=list)
    inventory_used: float = 0.0
    running_peak: float = 0.0  # max over committed slots of (d_k - delta_k); 0 before slot 1

    def __post_init__(self):
        # NaN and a bool fail both; prev_ratio = inf means not seeded
        if not is_at_least(self.monthly_peak, 0.0):
            raise NonPositiveBound(f"monthly_peak must be finite and >= 0, got {self.monthly_peak}")
        if not (self.prev_ratio == math.inf or is_at_least(self.prev_ratio, 1.0 - 1e-6)):
            raise ValueError(f"prev_ratio must be >= 1, got {self.prev_ratio}")

    @property
    def slot_index(self) -> int:
        """1-based index of the slot currently being decided."""
        return len(self.actions) + 1

    @property
    def remaining(self) -> float:
        return self.instance.capacity_c - self.inventory_used

    def admit(self, d_t: float, instance: Instance | None = None) -> None:
        """Raise unless the state is between slots, of instance if given, and d_t obeys the demand rule."""
        if instance is not None and instance != self.instance:
            raise ValueError("the state belongs to another instance")
        if len(self.observed) != len(self.actions):
            raise ValueError("state is mid-slot; commit the pending action first")
        check_numbers((d_t,), "demands")
        if not _admissible(self.instance, d_t):
            raise DemandOutOfBounds(
                f"demand {d_t} outside [{self.instance.demand_lb}, {self.instance.demand_ub}]")

    def observe(self, d_t: float) -> None:
        self.admit(d_t)
        self.observed.append(float(d_t))

    def commit(self, delta_t: float) -> None:
        if len(self.observed) != len(self.actions) + 1:
            raise ValueError("commit() requires a preceding observe()")
        check_numbers((delta_t,), "discharges")
        d_t = self.observed[-1]
        if not -EPS_KWH <= delta_t <= self.instance.slot_cap(d_t) + EPS_KWH:
            raise InfeasibleSchedule(
                f"slot {self.slot_index}: discharge {delta_t} violates [0, min(rate, {d_t})]"
            )
        if self.inventory_used + delta_t > self.instance.capacity_c + EPS_KWH:
            raise InfeasibleSchedule(
                f"slot {self.slot_index}: inventory overdraw ({self.inventory_used + delta_t} > {self.instance.capacity_c})"
            )
        delta_t = float(min(max(delta_t, 0.0), self.instance.slot_cap(d_t)))
        self.actions.append(delta_t)
        self.inventory_used += delta_t
        self.running_peak = max(self.running_peak, d_t - delta_t)
