"""Domain types: construction, validation, and the reference profile."""

from decimal import Decimal

import numpy as np
import pytest

from peakmin.core import (
    EPS_KWH,
    DemandProfile,
    DischargeSchedule,
    Instance,
    OnlineState,
    check_demands,
    reference_profile,
    reference_values,
    validate_instance,
)
from peakmin.cr import optimal_cr
from peakmin.errors import (
    CapacityExceedsMinDemand,
    DemandOutOfBounds,
    InfeasibleSchedule,
    InvertedBounds,
    NonPositiveBound,
    PrefixOutOfBounds,
    ZeroHorizon,
)

from peakmin.harness import DayProfileSet, SlottingConfig
from peakmin.online import anytime_ratio, pcr_step

from conftest import random_profiles


def test_validate_instance_roundtrip():
    inst = validate_instance(2.0, 1.5, 4, 1.0, 3.0)
    assert inst.capacity_c == 2.0
    assert inst.rate_limit == 1.5
    assert inst.horizon_T == 4
    assert inst.slot_cap(2.0) == 1.5
    assert inst.slot_cap(1.0) == 1.0


def test_unbounded_rate_limit_slot_cap():
    inst = Instance(2.0, None, 4, 1.0, 3.0)
    assert inst.slot_cap(2.5) == 2.5


def test_instance_rejections():
    with pytest.raises(ZeroHorizon):
        Instance(1.0, None, 0, 1.0, 2.0)
    with pytest.raises(NonPositiveBound):
        Instance(1.0, None, 2, 0.0, 2.0)
    with pytest.raises(InvertedBounds):
        Instance(1.0, None, 2, 2.0, 1.0)
    with pytest.raises(NonPositiveBound):
        Instance(1.0, 0.0, 2, 1.0, 2.0)
    with pytest.raises(NonPositiveBound):
        Instance(-0.5, None, 2, 1.0, 2.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["capacity_c", "rate_limit", "demand_lb", "demand_ub"])
def test_instance_rejects_non_finite_fields(field, bad):
    fields = dict(capacity_c=1.0, rate_limit=0.5, horizon_T=2, demand_lb=1.0, demand_ub=2.0)
    fields[field] = bad
    with pytest.raises(NonPositiveBound, match=field):
        Instance(**fields)


# (id, value); the bools keep the ids pytest gave them as the only cases
_NOT_KWH = [("True", True), ("False", False), ("bad2", np.True_), ("1.5", "1.5"),
            ("Decimal", Decimal("1")), ("None", None)]


@pytest.mark.parametrize("field, bad", [
    pytest.param(field, bad, id=f"{field}-{name}") for name, bad in _NOT_KWH
    for field in ("capacity_c", "rate_limit", "demand_lb", "demand_ub")
    if not (bad is None and field == "rate_limit")])  # None: no rate limit
def test_instance_rejects_a_bool_kwh_field(field, bad):
    """True used to pass as 1 kWh (and False as 0) in every kWh field, and a
    Decimal too; a str, or None where no None is allowed, raised TypeError."""
    fields = dict(capacity_c=1.0, rate_limit=1.5, horizon_T=2, demand_lb=1.0, demand_ub=2.0)
    fields[field] = bad
    with pytest.raises(NonPositiveBound, match=f"{field} must be a finite number"):
        Instance(**fields)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 2.5, True, "2"])
def test_instance_rejects_non_finite_horizon(bad):
    """A horizon that is not a whole number of slots, or is a bool or a str,
    raises ZeroHorizon under either name: validate_instance used to cut 2.5
    to 2, take True as 1, raise OverflowError on infinity and TypeError on "2"."""
    for build in (Instance, validate_instance):
        with pytest.raises(ZeroHorizon):
            build(1.0, None, bad, 1.0, 2.0)


def test_instance_normalizes_its_fields():
    """An integral float horizon is stored as an int, and whole-number kWh
    fields as floats; optimal_cr raised TypeError on a horizon of 2.0."""
    inst = Instance(1, None, 2.0, 1, 2)
    assert type(inst.horizon_T) is int and inst.horizon_T == 2
    assert all(type(v) is float for v in (inst.capacity_c, inst.demand_lb, inst.demand_ub))
    assert inst == validate_instance(1.0, None, 2, 1.0, 2.0)
    assert optimal_cr(inst).pi_star == pytest.approx(4.0 / 3.0)


def test_capacity_cannot_exceed_min_total_demand():
    Instance(2.0, None, 2, 1.0, 2.0)
    with pytest.raises(CapacityExceedsMinDemand):
        Instance(2.0 + 1e-6, None, 2, 1.0, 2.0)


def test_demand_profile_bounds_checked():
    inst = Instance(1.0, None, 3, 1.0, 2.0)
    profile = DemandProfile(inst, [1.0, 1.5, 2.0])
    assert len(profile) == 3
    assert list(profile) == [1.0, 1.5, 2.0]
    assert repr(profile) == "DemandProfile([1.0, 1.5, 2.0])"
    with pytest.raises(DemandOutOfBounds):
        DemandProfile(inst, [1.0, 2.5, 1.0])
    with pytest.raises(DemandOutOfBounds):
        DemandProfile(inst, [1.0, 1.0])


def test_demand_profile_is_immutable():
    inst = Instance(1.0, None, 2, 1.0, 2.0)
    profile = DemandProfile(inst, [1.0, 2.0])
    with pytest.raises(ValueError):
        profile.values[0] = 5.0


@pytest.mark.parametrize("bad", [3.0 + 2e-9, 1.0 - 2e-9, float("nan")])
def test_matrix_demand_check_names_the_row_demand_profile_names(bad):
    """One bad row among many: check_demands on the (N, T) matrix raises
    the DemandOutOfBounds, message and all, that DemandProfile raises on that
    row alone, and on a good matrix gives every row DemandProfile's values."""
    inst = Instance(2.0, None, 4, 1.0, 3.0)
    values = random_profiles(inst, 9, seed=4)
    values[:, 0] = [3.0 + 1e-9, 1.0 - 1e-9, 2.0] * 3
    clipped = check_demands(inst, values)
    assert not clipped.flags.writeable
    assert clipped.tolist() == [DemandProfile(inst, row).values.tolist() for row in values]
    for row in (0, 4, 8):
        broken = values.copy()
        broken[row, 1:3] = bad
        with pytest.raises(DemandOutOfBounds) as matrix:
            check_demands(inst, broken)
        with pytest.raises(DemandOutOfBounds) as day:
            DemandProfile(inst, broken[row])
        assert str(matrix.value) == str(day.value)


def _demand_verdicts(d):
    """Whether each entry point admits the demand d of the instance with
    bounds [1, 3] and T = 4 (True) or raises its out-of-bounds error."""
    inst = Instance(2.0, None, 4, 1.0, 3.0)
    day = [2.0, d, 1.0, 1.5]
    state = OnlineState(inst)
    slotting = SlottingConfig(15, "12:00", "13:00", demand_bounds=(1.0, 3.0))
    entry_points = {
        "DemandProfile": (DemandOutOfBounds, lambda: DemandProfile(inst, day)),
        "check_demands": (DemandOutOfBounds,
                          lambda: check_demands(inst, np.array([[1.0] * 4, day, [2.0] * 4]))),
        "observe": (DemandOutOfBounds, lambda: state.observe(d)),
        "pcr_step": (DemandOutOfBounds, lambda: pcr_step(inst, OnlineState(inst), 1.5, d)),
        "anytime_ratio": (DemandOutOfBounds,
                          lambda: anytime_ratio(inst, OnlineState(inst), d, epsilon=1e-2)),
        "reference_profile": (PrefixOutOfBounds, lambda: reference_profile(inst, [2.0, d])),
        "DayProfileSet": (DemandOutOfBounds,
                          lambda: DayProfileSet(("2024-05-06",), [day], slotting)),
    }
    verdicts = {}
    for name, (error, call) in entry_points.items():
        try:
            call()
            verdicts[name] = True
        except error:
            verdicts[name] = False
    return verdicts


@pytest.mark.parametrize("d, admitted", [
    (3.0 + 5e-10, True), (3.0 + 2e-9, False), (float("nan"), False),
], ids=["inside-tolerance", "outside-tolerance", "nan"])
def test_every_entry_point_states_one_demand_rule(d, admitted):
    """A demand within EPS_KWH of the bounds is admitted everywhere, and one
    beyond it or NaN is refused everywhere: one day, a day matrix, the
    online state, both online steps, the reference profile and the day set."""
    assert 5e-10 < EPS_KWH < 2e-9
    verdicts = _demand_verdicts(d)
    assert verdicts == dict.fromkeys(verdicts, admitted)


def _number_rule_calls(value):
    """Each entry point that admits kWh, given value where a kWh belongs."""
    inst = Instance(1.5, None, 2, 1.0, 2.0)
    profile = DemandProfile(inst, [1.0, 2.0])
    slotting = SlottingConfig(15, "12:00", "12:30", demand_bounds=(1.0, 2.0))

    def commit():
        state = OnlineState(inst)
        state.observe(2.0)
        state.commit(value)

    return {
        "DemandProfile": lambda: DemandProfile(inst, [value, 2.0]),
        "DischargeSchedule": lambda: DischargeSchedule(inst, profile, [value, 0.25]),
        "reference_profile": lambda: reference_profile(inst, [value]),
        "observe": lambda: OnlineState(inst).observe(value),
        "commit": commit,
        "pcr_step": lambda: pcr_step(inst, OnlineState(inst), 1.5, value),
        "anytime_ratio": lambda: anytime_ratio(inst, OnlineState(inst, prev_ratio=1.5), value),
        "DayProfileSet": lambda: DayProfileSet(("2024-05-06",), [[value, 2.0]], slotting),
    }


@pytest.mark.parametrize("entry", list(_number_rule_calls(1.0)))
@pytest.mark.parametrize("bad", [True, np.True_, "1.5"], ids=["bool", "numpy-bool", "str"])
def test_every_kwh_entry_point_states_one_number_rule(entry, bad):
    """A bool or a str is no kWh anywhere: DemandProfile read [True, 2.0] as
    [1.0, 2.0] and ["1.5", 2.0] as [1.5, 2.0], the online state observed and
    committed True as 1 kWh, and both online steps answered for it. An int
    of either kind is a number."""
    with pytest.raises(ValueError, match=f"must be numbers, got {type(bad).__name__}$"):
        _number_rule_calls(bad)[entry]()
    for good in (1, np.int64(1)):
        _number_rule_calls(good)[entry]()


def _misuse(case):
    inst = Instance(1.0, None, 2, 1.0, 2.0)
    state = OnlineState(inst)
    if case == "matrix":
        DemandProfile(inst, [[1.0, 2.0]])
    elif case == "admit-mid-slot":
        state.observe(2.0)
        state.admit(2.0)
    elif case == "commit-unobserved":
        state.commit(0.5)
    else:
        state.observe(2.0)
        state.commit(0.75)
        state.observe(2.0)
        state.commit(0.5)


@pytest.mark.parametrize("case, error, message", [
    ("matrix", ValueError, "1-D vector"),
    ("admit-mid-slot", ValueError, "mid-slot"),
    ("commit-unobserved", ValueError, "preceding observe"),
    ("overdraw", InfeasibleSchedule, "inventory overdraw"),
])
def test_vectors_and_the_online_state_refuse_misuse(case, error, message):
    """A matrix where a day belongs, a second demand before the pending
    discharge, a discharge with no demand, and one past the inventory."""
    with pytest.raises(error, match=message):
        _misuse(case)


def test_schedule_feasibility_checks():
    inst = Instance(1.0, 0.8, 3, 1.0, 2.0)
    demand = DemandProfile(inst, [1.0, 2.0, 1.5])
    schedule = DischargeSchedule(inst, demand, [0.2, 0.5, 0.3])
    assert len(schedule) == 3
    assert repr(schedule) == "DischargeSchedule([0.2, 0.5, 0.3])"
    with pytest.raises(InfeasibleSchedule):
        DischargeSchedule(inst, demand, [0.9, 0.0, 0.0])  # above rate limit
    with pytest.raises(InfeasibleSchedule):
        DischargeSchedule(inst, demand, [0.5, 0.5, 0.5])  # above capacity
    with pytest.raises(InfeasibleSchedule):
        DischargeSchedule(inst, demand, [-0.1, 0.5, 0.0])
    with pytest.raises(InfeasibleSchedule):
        DischargeSchedule(inst, demand, [0.2, 0.5])


def test_reference_profile_pads_with_floor():
    inst = Instance(2.0, None, 4, 1.0, 3.0)
    ref = reference_profile(inst, [2.5, 1.5])
    assert np.allclose(ref.values, [2.5, 1.5, 1.0, 1.0])
    vals = reference_values(inst, np.array([2.5]))
    assert np.allclose(vals, [2.5, 1.0, 1.0, 1.0])


def test_reference_profile_rejects_bad_prefix():
    inst = Instance(2.0, None, 4, 1.0, 3.0)
    with pytest.raises(PrefixOutOfBounds):
        reference_profile(inst, [2.5, 3.5])
    with pytest.raises(PrefixOutOfBounds):
        reference_profile(inst, [1.0] * 5)


def test_online_state_tracks_inventory():
    inst = Instance(1.0, None, 2, 1.0, 2.0)
    state = OnlineState(inst)
    assert state.remaining == 1.0
    assert state.slot_index == 1  # slot currently being decided, 1-based
    state.observe(2.0)
    state.commit(0.4)
    assert state.slot_index == 2
    assert state.remaining == pytest.approx(0.6)
    assert state.observed == [2.0]
    assert state.actions == [0.4]


def test_fuzz_profiles_always_validate():
    inst = Instance(1.5, None, 3, 1.0, 3.0)
    for row in random_profiles(inst, 200, seed=11):
        profile = DemandProfile(inst, row)
        assert profile.values.min() >= inst.demand_lb - 1e-9
        assert profile.values.max() <= inst.demand_ub + 1e-9


NAN = float("nan")


def test_demand_profile_rejects_nan():
    inst = Instance(2.0, None, 3, 1.0, 3.0)
    with pytest.raises(DemandOutOfBounds):
        DemandProfile(inst, [2.0, NAN, 1.5])


def test_discharge_schedule_rejects_nan():
    inst = Instance(2.0, 1.0, 3, 1.0, 3.0)
    demand = DemandProfile(inst, [2.0, 2.0, 2.0])
    with pytest.raises(InfeasibleSchedule):
        DischargeSchedule(inst, demand, [0.5, NAN, 0.0])


def test_reference_profile_rejects_nan_prefix():
    inst = Instance(2.0, None, 4, 1.0, 3.0)
    with pytest.raises(PrefixOutOfBounds):
        reference_profile(inst, [2.5, NAN])


def test_online_state_commit_rejects_nan():
    state = OnlineState(Instance(1.0, None, 2, 1.0, 2.0))
    state.observe(2.0)
    with pytest.raises(InfeasibleSchedule):
        state.commit(NAN)
    assert state.inventory_used == 0.0 and state.actions == []


def test_online_state_rejects_a_bool_monthly_peak():
    """monthly_peak=True used to run with a 1 kWh standing peak."""
    with pytest.raises(NonPositiveBound, match="monthly_peak"):
        OnlineState(Instance(1.0, None, 2, 1.0, 2.0), monthly_peak=True)


def test_online_state_rejects_a_bool_prev_ratio():
    """prev_ratio=True used to seed the bisection ceiling with 1; the floor
    1 - 1e-6 still admits a ratio rounded just below 1."""
    inst = Instance(1.0, None, 2, 1.0, 2.0)
    for bad in (True, np.True_):
        with pytest.raises(ValueError, match="prev_ratio"):
            OnlineState(inst, prev_ratio=bad)
    assert OnlineState(inst, prev_ratio=1.0 - 1e-7).prev_ratio == 1.0 - 1e-7


def test_online_state_rejects_nan_and_infinite_settings():
    inst = Instance(1.0, None, 2, 1.0, 2.0)
    for bad in (NAN, float("inf")):
        with pytest.raises(NonPositiveBound):
            OnlineState(inst, monthly_peak=bad)
    with pytest.raises(ValueError):
        OnlineState(inst, prev_ratio=NAN)
    # an infinite prev_ratio means the state is not seeded yet
    assert OnlineState(inst, prev_ratio=float("inf")).prev_ratio == float("inf")
