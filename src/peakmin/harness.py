"""Trace ingestion, synthetic day generators, and the experiment driver.

Raw charging traces arrive as CSV transactions (start time, duration,
energy). parse_transactions reads every trace in column passes into
TraceColumns, checked on whole columns; a loop over rows runs only to name
the line of a field that does not read. ingest_trace slots the columns
into a DayProfileSet, per-day on-peak demand profiles at constant power
plus the SlottingConfig that cut them, as the synthetic generators and the
JSON loader build theirs. run_experiment replays a roster of policies over
those days while sweeping the storage capacity, and folds the peaks into
report tables that render as plain text or plot-ready series rows.
POLICY_RUNNERS runs one policy on one day; the experiment runs the
certified policies through it day by day, while the offline peaks and each
baseline kernel take one call and one check over the stacked day matrix.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import re
from dataclasses import dataclass, field, fields, replace
from datetime import date, datetime, timedelta
from typing import NamedTuple

import numpy as np

from .baselines import (
    FUTURE_LOWER,
    FUTURE_MIDPOINT,
    FUTURE_UPPER,
    RhcConfig,
    baseline_peaks,
    equal_discharge_actions,
    equal_ratio_actions,
    is_window,
    rhc_actions,
    run_equal_discharge,
    run_equal_ratio,
    run_rhc,
    run_threshold,
    threshold_actions,
)
from .core import DemandProfile, Instance, check_demands, check_numbers, is_positive
from .cr import optimal_cr
from .errors import (
    DemandOutOfBounds,
    EmptyTrace,
    InfeasibleSchedule,
    MalformedRecord,
    MismatchedLengths,
    UnknownAlgorithm,
)

# solve_offline_pmd is not called here (the offline peaks come from
# offline_peaks); the benchmark's tracer wraps this harness attribute by name
from .offline import offline_peaks, solve_offline_pmd  # noqa: F401
from .online import MODE_ANYTIME, MODE_ANYTIME_DEPLETING, PolicyOptions, run_anytime, run_pcr_pmd

logger = logging.getLogger(__name__)

TRACE_HEADER = ("start_iso8601", "duration_min", "energy_kwh")

ALGO_OFFLINE = "offline"
ALGO_FIXED = "fixed"
ALGO_ANYTIME = "anytime"
ALGO_ANYTIME_DEPLETE = "anytime-deplete"
ALGO_THR_OFFLINE_MEAN = "thr-offline-mean"
ALGO_THR_MID = "thr-mid"
ALGO_EQUAL_DISCHARGE = "eql-dis"
ALGO_EQUAL_RATIO = "eql-per"
ALGO_RHC_UPPER = "rhc-upper"
ALGO_RHC_LOWER = "rhc-lower"
ALGO_RHC_MID = "rhc-mid"

_RHC_VIEWS = {ALGO_RHC_UPPER: FUTURE_UPPER, ALGO_RHC_LOWER: FUTURE_LOWER,
              ALGO_RHC_MID: FUTURE_MIDPOINT}

# Baseline policy -> (kernel, the keyword of its per-row argument, and that
# argument at one rate from the instance, its offline peaks and the days'
# mean energy). run_experiment calls each kernel once, on the days of every
# rate and every roster policy that uses it, stacked.
_BASELINES = {
    ALGO_THR_OFFLINE_MEAN: (threshold_actions, "threshold",
                            lambda instance, offline, energy: float(np.mean(offline))),
    ALGO_THR_MID: (threshold_actions, "threshold", lambda instance, offline, energy:
                   0.5 * (instance.demand_lb + instance.demand_ub)),
    ALGO_EQUAL_DISCHARGE: (equal_discharge_actions, None, None),
    ALGO_EQUAL_RATIO: (equal_ratio_actions, "capacity_rate", lambda instance, offline, energy:
                       min(1.0, instance.capacity_c / energy)),
    **{algorithm: (rhc_actions, "future", lambda instance, offline, energy, view=view:
                   RhcConfig(None, view).future_value(instance))
       for algorithm, view in _RHC_VIEWS.items()},
}

# the ratio-pursuit policies, which run day by day and read pi
_RATIO_ALGOS = (ALGO_FIXED, ALGO_ANYTIME, ALGO_ANYTIME_DEPLETE)
ALL_ALGORITHMS = (ALGO_OFFLINE, *_RATIO_ALGOS, *_BASELINES)

# a purchase threshold given by the caller; experiments run it as
# thr-offline-mean and thr-mid, with the threshold set per capacity rate
ALGO_THR = "thr"


class RunSettings(NamedTuple):
    """What a policy runner may read besides the instance and the day.

    pi is the target ratio of the fixed policy and the initial ratio of the
    anytime ones (None computes the optimal competitive ratio); threshold,
    ratio and window feed thr, eql-per and the rhc policies.
    """

    pi: float | None = None
    epsilon: float = PolicyOptions.bisection_epsilon
    threshold: float | None = None
    ratio: float | None = None
    window: int | None = None


def _anytime_runner(mode: str):
    return lambda instance, profile, settings: run_anytime(instance, profile, PolicyOptions(
        mode=mode, initial_ratio=settings.pi, bisection_epsilon=settings.epsilon,
    ))


# Policy name -> runner(instance, profile, settings) -> that day's PolicyRun.
# `peakmin simulate` (whose --algo choices are these names, in this order)
# runs one; run_experiment runs the certified ones day by day (_day_peaks)
# and calls the baseline kernels itself, on every rate at once. Runners look
# the policy functions up in this module when called, never at import, so
# patching or wrapping a module attribute reaches every run.
POLICY_RUNNERS = {
    ALGO_FIXED: lambda instance, profile, settings: run_pcr_pmd(
        instance, optimal_cr(instance).pi_star if settings.pi is None else settings.pi, profile),
    ALGO_ANYTIME: _anytime_runner(MODE_ANYTIME),
    ALGO_ANYTIME_DEPLETE: _anytime_runner(MODE_ANYTIME_DEPLETING),
    ALGO_THR: lambda instance, profile, settings: run_threshold(
        instance, profile, settings.threshold),
    ALGO_EQUAL_DISCHARGE: lambda instance, profile, settings: run_equal_discharge(
        instance, profile),
    ALGO_EQUAL_RATIO: lambda instance, profile, settings: run_equal_ratio(
        instance, profile, settings.ratio),
    **{algorithm: lambda instance, profile, settings, view=view: run_rhc(
        instance, profile, RhcConfig(settings.window, view))
       for algorithm, view in _RHC_VIEWS.items()},
}


def _clock_minutes(text: str, end: bool = False) -> int:
    # ASCII digits only, as int() would also read "1_2", "+1", " 9" and other
    # scripts' digits; a JSON number is no clock time either
    match = re.fullmatch(r"([0-9]{1,2}):([0-9]{2})", str(text))
    if match is None:
        raise ValueError(f"clock time must look like HH:MM, got {text!r}")
    hours, minutes = int(match[1]), int(match[2])
    # a window may end at the next midnight, 24:00, so that it spans a whole day
    if not (hours < 24 and minutes < 60 or end and (hours, minutes) == (24, 0)):
        raise ValueError(f"clock time out of range: {text!r}")
    return 60 * hours + minutes


def parse_decimal(text: str) -> float:
    """float(text) for ASCII text without underscores: float() also reads PEP
    515 underscores and other scripts' digits ("1_000", "\u0661\u0662", "\uff11\uff12")."""
    if text.isascii() and "_" not in text:
        return float(text)
    raise ValueError(f"could not convert string to float: {text!r}")


@dataclass(frozen=True)
class SlottingConfig:
    """How raw transactions become per-day on-peak demand profiles.

    The on-peak window [on_peak_start, on_peak_end) of every calendar day is
    cut into slot_minutes slots; an end of 24:00 is the next midnight, so a
    window may span the whole day. scale_factor multiplies every slot value
    after attribution and is always explicit, never inferred from the data.
    demand_bounds, when given, override the empirical min/max of the kept
    slot values. scale_factor and both bounds are real numbers, not
    booleans, in (0, inf). The default window spans five hours, i.e. 20
    slots of 15 minutes.
    """

    slot_minutes: int = 15
    on_peak_start: str = "12:00"
    on_peak_end: str = "17:00"
    scale_factor: float = 1.0
    demand_bounds: tuple[float, float] | None = None

    def __post_init__(self):
        if self.slot_minutes is None or not is_window(self.slot_minutes):
            raise ValueError(f"slot_minutes must be a positive integer, got {self.slot_minutes}")
        # a numpy integer would pass on to a DayProfileSet that JSON cannot write
        object.__setattr__(self, "slot_minutes", int(self.slot_minutes))
        span = _clock_minutes(self.on_peak_end, end=True) - _clock_minutes(self.on_peak_start)
        if span <= 0:
            raise ValueError("on-peak window must end after it starts")
        if span % self.slot_minutes:
            raise ValueError(
                f"window of {span} min does not divide into {self.slot_minutes}-min slots"
            )
        if not is_positive(self.scale_factor):
            raise ValueError(f"scale_factor must be a positive number, got {self.scale_factor}")
        if self.demand_bounds is not None:
            lb, ub = self.demand_bounds
            if not (is_positive(lb) and is_positive(ub) and lb <= ub):
                raise ValueError(
                    f"demand_bounds must be numbers, 0 < lb <= ub < inf, got {self.demand_bounds}"
                )

    @property
    def horizon(self) -> int:
        span = _clock_minutes(self.on_peak_end, end=True) - _clock_minutes(self.on_peak_start)
        return span // self.slot_minutes


class TraceColumns(NamedTuple):
    """Transactions as parallel columns: start in integer microseconds since
    1970 (naive local time), length in microseconds, and the fields as read."""

    start_us: np.ndarray
    duration_us: np.ndarray
    duration_min: np.ndarray
    energy_kwh: np.ndarray

    def __eq__(self, other):
        return isinstance(other, TraceColumns) and all(map(np.array_equal, self, other))

    __ne__ = object.__ne__  # tuple's would compare the arrays element by element


_MINUTE_US = 60_000_000
_DAY_US = 24 * 60 * _MINUTE_US
# A session must end by datetime.max; one longer than the whole datetime
# range ends past it from any start, and its microseconds could overflow int64.
_END_MAX_US, _START_MIN_US = (
    np.array([datetime.max, datetime.min], "datetime64[us]").view(np.int64).tolist())
_SPAN_MAX_MIN = (_END_MAX_US - _START_MIN_US) / _MINUTE_US


# every byte but the comma and the newline, which the byte pass keeps
_NOT_SEPARATORS = bytes(byte for byte in range(256) if byte not in b",\n")
# a start, each digit as 0, in a form numpy's datetime64 reads as fromisoformat
# does (it reads "20240506" as a year, and a basic time or a long fraction otherwise)
_DIGITS_AS_ZERO = bytes.maketrans(b"123456789", b"0" * 9)
_NUMPY_START = re.compile(rb"0000-00-00(?:[T ]00(?::00(?::00(?:\.0{1,6})?)?)?)?")


def _line_number(lines, index: int) -> int:
    """The number of the index-th line that is neither blank nor a comment."""
    return [number for number, line in enumerate(lines, 1) if line and line[0] != "#"][index]


def _first_problem(rows):
    """(index, message) of the first row whose fields do not read, else None."""
    for index, row in enumerate(rows):
        cells = [cell.strip() for cell in row.split(",")]
        if len(cells) != 3:
            return index, f"expected 3 fields, got {len(cells)}"
        try:
            datetime.fromisoformat(cells[0]), parse_decimal(cells[1]), parse_decimal(cells[2])
        except ValueError as exc:
            return index, str(exc)


def _read_rows(rows):
    """The columns of rows of three fields each, and which starts carry a
    UTC offset. A length converts as timedelta(minutes=x) does: whole
    minutes exactly, their fraction times 60e6 rounded half to even. One
    that is not positive, finite and within the datetime range gets 0
    (parse_transactions rejects it)."""
    text = ",".join(rows)
    cells = text.split(",") if rows else []
    # numpy reads a str number as float() does, which reads plain ASCII as
    # parse_decimal reads it stripped, but for "_" and the separators \x1c-\x1f
    if not text.isascii() or any(mark in text for mark in "_\x1c\x1d\x1e\x1f"):
        cells[1::3], cells[2::3] = ([parse_decimal(cell.strip()) for cell in cells[k::3]]
                                    for k in (1, 2))
    starts = list(map(str.strip, cells[0::3]))
    moments = list(map(datetime.fromisoformat, starts))
    shapes = "\n".join(starts).encode("ascii", "replace").translate(_DIGITS_AS_ZERO)
    first = shapes.partition(b"\n")[0]
    # most traces write every start in one shape, which needs no split
    kinds = {first} if shapes == b"\n".join([first] * len(starts)) else set(shapes.split(b"\n"))
    if all(map(_NUMPY_START.fullmatch, kinds)):
        aware = np.zeros(len(starts), bool)
    else:
        starts = [moment.replace(tzinfo=None).isoformat() for moment in moments]
        aware = np.array([moment.tzinfo is not None for moment in moments], bool)
    minutes, kwh = (np.array(cells[k::3], dtype=float) for k in (1, 2))
    fraction, whole = np.modf(np.where((minutes > 0) & (minutes <= _SPAN_MAX_MIN), minutes, 0.0))
    duration_us = (whole.astype(np.int64) * _MINUTE_US
                   + np.rint(fraction * _MINUTE_US).astype(np.int64))
    start_us = np.array(starts, dtype="datetime64[us]").view(np.int64)
    return TraceColumns(start_us, duration_us, minutes, kwh), aware


def parse_transactions(lines) -> TraceColumns:
    """Parse CSV rows "start_iso8601,duration_min,energy_kwh" into columns.

    lines is the text, numbered as str.splitlines() splits it, or its lines.
    The header row is required. Blank lines and lines starting with "#" are
    skipped. Field-level problems raise MalformedRecord with the offending
    line number; a file with a header but no data rows raises EmptyTrace.
    Fields are read in column passes; where one does not read, a loop names
    its row, unless a rule on the columns names an earlier one.
    """
    lines = list(map(str.strip, lines.splitlines() if isinstance(lines, str) else lines))
    kept, text = lines, "\n".join(lines)
    if "" in lines or "#" in text:
        kept = [line for line in lines if line and line[0] != "#"]
        text = "\n".join(kept)
    if not kept:
        raise MalformedRecord("empty input: the header row is required")
    if tuple(cell.strip().lower() for cell in kept[0].split(",")) != TRACE_HEADER:
        raise MalformedRecord(f"line {_line_number(lines, 0)}: expected header "
                              f"{','.join(TRACE_HEADER)}, got {kept[0]!r}")
    rows = kept[1:]
    if not rows:
        raise EmptyTrace("no transactions after the header")
    failure = None
    try:
        # two commas on the header and on each row: three fields
        separators = text.encode("ascii", "replace").translate(None, _NOT_SEPARATORS)
        if separators != b",,\n" * len(rows) + b",,":
            raise ValueError
        columns, aware = _read_rows(rows)
    except ValueError:
        # no row fails where a line given in a list held a line break
        failure = _first_problem(rows)
        columns, aware = _read_rows(rows[:failure[0]] if failure else rows)
    start_us, duration_us, minutes, kwh = columns
    # slot boundaries are naive local times, which an aware start cannot meet
    rules = (
        (~(np.isfinite(minutes) & (minutes > 0)),
         lambda i: f"duration_min must be > 0, got {float(minutes[i])}"),
        (~(np.isfinite(kwh) & (kwh >= 0)),
         lambda i: f"energy_kwh must be >= 0, got {float(kwh[i])}"),
        (aware, lambda i: "start must carry no UTC offset, got "
         + datetime.fromisoformat(rows[i].split(",")[0].strip()).isoformat()),
        ((minutes > _SPAN_MAX_MIN) | (start_us + duration_us > _END_MAX_US),
         lambda i: f"a {float(minutes[i])} min session ends past year 9999"),
    )
    bad = np.logical_or.reduce([mask for mask, _ in rules])
    if bad.any():
        row = int(bad.argmax())
        failure = (row, next(message(row) for mask, message in rules if mask[row]))
    if failure is not None:
        raise MalformedRecord(f"line {_line_number(lines, failure[0] + 1)}: {failure[1]}")
    return columns


def load_transactions(path) -> TraceColumns:
    # utf-8-sig drops the byte-order mark that "CSV UTF-8" exports start with
    with open(path, encoding="utf-8-sig") as fh:
        # a file's lines end at "\n" (universal newlines), not at splitlines()'s other breaks
        return parse_transactions(fh.read().removesuffix("\n").split("\n"))


def _same_fields(a, b):
    """Value equality of two dataclasses of one type, array fields included."""
    if type(a) is not type(b):
        return NotImplemented
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))


def _is_iso_date(text: str) -> bool:
    try:
        return date.fromisoformat(text).isoformat() == text
    except ValueError:
        return False


@dataclass(frozen=True)
class DayProfileSet:
    """Per-day on-peak demand profiles and the SlottingConfig that cut them.

    day_values is a read-only float (N, T) array, one row per day_keys entry
    (ISO dates, strictly increasing); T is the slotting's slot count. The
    bounds are the slotting's demand_bounds, set to the values' min and max
    when it has none; the values pass check_demands against them (so every
    set that loads runs) and are stored as it clips them. avg_daily_energy
    is the mean of the per-day totals and the natural yardstick for storage
    capacity ("a 30% capacity rate" means c = 0.3 * avg_daily_energy).
    """

    day_keys: tuple[str, ...]
    day_values: np.ndarray
    slotting: SlottingConfig

    __eq__ = _same_fields

    def __post_init__(self):
        keys = tuple(str(k) for k in self.day_keys)
        rows = self.day_values
        if not len(rows):
            raise ValueError("at least one day is required")
        if len(keys) != len(rows):
            raise ValueError(f"{len(keys)} day keys for {len(rows)} day rows")
        # numpy refuses ragged rows with a message of its own; they fail as no rows do
        ragged = not isinstance(rows, np.ndarray) and len({np.shape(r) for r in rows}) > 1
        values = np.array([[]] if ragged else rows, dtype=float)
        if values.ndim != 2 or values.shape[1] < 1:
            raise ValueError("day rows must share one positive horizon")
        check_numbers(rows if isinstance(rows, np.ndarray) else itertools.chain.from_iterable(rows),
                      "day values")
        object.__setattr__(self, "day_keys", keys)
        object.__setattr__(self, "day_values", values)
        bad = [k for prev, k in zip(("",) + keys, keys) if not (_is_iso_date(k) and prev < k)]
        if bad:
            raise ValueError(f"day keys must be ISO dates in increasing order, got {bad[0]!r}")
        if self.slotting.horizon != values.shape[1]:
            raise ValueError(
                f"the window holds {self.slotting.horizon} slots, the day rows {values.shape[1]}"
            )
        if self.slotting.demand_bounds is None:
            # min and max propagate NaN, which the slotting's bounds check rejects
            object.__setattr__(self, "slotting", replace(
                self.slotting, demand_bounds=(float(values.min()), float(values.max()))))
        object.__setattr__(self, "day_values", check_demands(self.instance(0.0), values))

    @property
    def demand_lb(self) -> float:
        return self.slotting.demand_bounds[0]

    @property
    def demand_ub(self) -> float:
        return self.slotting.demand_bounds[1]

    @functools.cached_property
    def avg_daily_energy(self) -> float:
        return float(self.day_values.sum(axis=1).mean())

    @property
    def horizon(self) -> int:
        return self.day_values.shape[1]

    @property
    def num_days(self) -> int:
        return len(self.day_values)

    def values(self) -> np.ndarray:
        # a second name for day_values, which perfbench/inputs.py reads
        return self.day_values

    def instance(self, capacity_c: float, rate_limit: float | None = None) -> Instance:
        return Instance(capacity_c, rate_limit, self.horizon, *self.slotting.demand_bounds)

    def monthly_groups(self) -> dict[str, tuple[int, ...]]:
        """Map "YYYY-MM" to the row indices of that month, in file order."""
        months = [key[:7] for key in self.day_keys]
        return {m: tuple(i for i, k in enumerate(months) if k == m) for m in dict.fromkeys(months)}


# the JSON keys of a profile set: its days, its slotting's fields flat with
# the bounds as two keys, and the days' mean energy
_SLOTTING_KEYS = ("slot_minutes", "on_peak_start", "on_peak_end", "scale_factor")
_PROFILE_SET_KEYS = ("day_keys", "day_values", *_SLOTTING_KEYS,
                     "demand_lb", "demand_ub", "avg_daily_energy")


def profile_set_to_json(profiles: DayProfileSet) -> str:
    payload = {key: getattr(profiles.slotting if key in _SLOTTING_KEYS else profiles, key)
               for key in _PROFILE_SET_KEYS}
    payload["day_values"] = profiles.day_values.tolist()
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def profile_set_from_json(text: str) -> DayProfileSet:
    """The stated avg_daily_energy must be the days' mean within 1e-6 relative."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedRecord(f"profile set is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise MalformedRecord("profile set JSON must be an object")
    missing = [k for k in _PROFILE_SET_KEYS if k not in payload]
    if missing:
        raise MalformedRecord(f"profile set JSON missing keys: {', '.join(missing)}")
    try:
        profiles = DayProfileSet(payload["day_keys"], payload["day_values"], SlottingConfig(
            *(payload[k] for k in _SLOTTING_KEYS),
            demand_bounds=(payload["demand_lb"], payload["demand_ub"])))
        stated, mean = payload["avg_daily_energy"], profiles.avg_daily_energy
        if not (is_positive(stated) and abs(mean - stated) <= 1e-6 * max(1.0, mean)):
            raise ValueError(f"avg_daily_energy {stated!r} disagrees with the profile mean {mean}")
    except (TypeError, ValueError, DemandOutOfBounds) as exc:
        raise MalformedRecord(f"profile set JSON rejected: {exc}") from None
    return profiles


def save_profile_set(profiles: DayProfileSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(profile_set_to_json(profiles))
        fh.write("\n")


def load_profile_set(path) -> DayProfileSet:
    with open(path, encoding="utf-8") as fh:
        return profile_set_from_json(fh.read())


def ingest_trace(transactions, config: SlottingConfig = SlottingConfig()) -> DayProfileSet:
    """Slot transactions into per-day on-peak profiles at constant power.

    Each transaction's energy spreads over the slots it overlaps in
    proportion to the overlapped minutes, so the attributed energy inside
    the windows is conserved exactly. Days where some on-peak slot never
    receives energy are incomplete; they are dropped and logged rather than
    passed on as artificial zero demand.

    transactions are the columns parse_transactions returns. Times are
    integer microseconds since 1970, as datetime arithmetic keeps them, and
    every (transaction, calendar day it spans) pair is slotted at once, one
    slot at a time. A slot's energy is summed in transaction order.
    """
    start, duration_us, duration_min, energy_kwh = transactions
    if not len(start):
        raise EmptyTrace("no transactions to ingest")
    horizon = config.horizon
    slot_us = config.slot_minutes * _MINUTE_US
    end = start + duration_us
    # one pair per transaction and calendar day, from its start's date to its end's
    first_day = start // _DAY_US
    spans = end // _DAY_US - first_day + 1
    txn = np.repeat(np.arange(len(start)), spans)
    pair_day = first_day[txn] + np.arange(len(txn)) - (np.cumsum(spans) - spans)[txn]
    days, day_of = np.unique(pair_day, return_inverse=True)
    t0, t1 = start[txn], end[txn]
    energy = energy_kwh[txn]
    duration = duration_min[txn]
    window_open = pair_day * _DAY_US + _clock_minutes(config.on_peak_start) * _MINUTE_US

    sums = np.zeros((horizon, len(days)))
    touched = np.zeros(len(days), dtype=bool)  # a day some slot overlaps
    for k in range(horizon):
        s0 = window_open + k * slot_us
        overlap = np.minimum(t1, s0 + slot_us) - np.maximum(t0, s0)
        hit = overlap > 0
        touched[day_of[hit]] = True
        # seconds, then minutes, rounded as timedelta.total_seconds() / 60.0 rounds them
        minutes = overlap[hit] / 1e6 / 60.0
        np.add.at(sums[k], day_of[hit], energy[hit] * minutes / duration[hit])

    keys = days[touched].astype("datetime64[D]").astype(str)
    rows = sums.T[touched] * config.scale_factor
    incomplete = (rows <= 0).any(axis=1)
    if incomplete.any():
        logger.info("dropped %d day(s) with incomplete on-peak coverage: %s",
                    incomplete.sum(), ", ".join(keys[incomplete]))
    if incomplete.all():
        raise EmptyTrace("no day fully covers the on-peak window")
    return DayProfileSet(keys[~incomplete], rows[~incomplete], config)


def _synthetic_days(num_days: int, horizon: int, demand_lb: float, demand_ub: float,
                    start_date: str) -> tuple[tuple[str, ...], SlottingConfig]:
    """Day keys from start_date, and horizon slots of SlottingConfig's default
    length from its default start, 12:00, or, for a window that would run
    past midnight, ending at 24:00; a day holds 96 of them."""
    slot = SlottingConfig.slot_minutes
    day_slots = _DAY_US // (slot * _MINUTE_US)
    if horizon > day_slots:
        raise ValueError(f"horizon {horizon} exceeds the {day_slots} slots of a day")
    # SlottingConfig rejects an empty window
    start = min(_clock_minutes(SlottingConfig.on_peak_start), slot * (day_slots - horizon))
    start_text, end_text = (f"{m // 60:02d}:{m % 60:02d}" for m in (start, start + slot * horizon))
    slotting = SlottingConfig(on_peak_start=start_text, on_peak_end=end_text,
                              demand_bounds=(demand_lb, demand_ub))
    first = date.fromisoformat(start_date)
    return tuple((first + timedelta(days=i)).isoformat() for i in range(num_days)), slotting


def synthetic_uniform_profiles(
    num_days: int, horizon: int, demand_lb: float, demand_ub: float,
    seed: int, start_date: str = "2024-03-01",
) -> DayProfileSet:
    """Days of independent uniform draws over [demand_lb, demand_ub]."""
    keys, slotting = _synthetic_days(num_days, horizon, demand_lb, demand_ub, start_date)
    rng = np.random.default_rng(seed)
    return DayProfileSet(keys, rng.uniform(demand_lb, demand_ub, size=(num_days, horizon)),
                         slotting)


def synthetic_volatile_profiles(
    num_days: int, horizon: int, demand_lb: float, demand_ub: float,
    seed: int, calm_share: float = 0.55, surge_share: float = 0.225,
    start_date: str = "2024-03-01",
) -> DayProfileSet:
    """Volatile days: a rising base load punctuated by late demand surges.

    Every day carries a gently rising base (sites fill toward the evening):
    the floor plus noise in the lowest eighth of the range plus a ramp
    reaching about a third of the range by the final slot. A calm_share of
    days stay that way. Of the rest, half take a one-slot moderate surge
    (55-70% of the range) somewhere in the back half of the window, and half
    take a two-slot surge near the ceiling there. The mixture is deliberately
    hostile to any single fixed rule: moderate surges sit above in-band
    purchase thresholds, ceiling surges drain threshold rules into buying the
    tail raw, the rising base punishes policies that spend early, and the
    surge heights spread out enough that no constant discharge matches them.
    """
    keys, slotting = _synthetic_days(num_days, horizon, demand_lb, demand_ub, start_date)
    if not (0 <= calm_share <= 1 and 0 <= surge_share and calm_share + surge_share <= 1):
        raise ValueError(
            f"shares must be nonnegative with calm_share + surge_share <= 1, "
            f"got ({calm_share}, {surge_share})"
        )
    rng = np.random.default_rng(seed)
    span = demand_ub - demand_lb
    late_start = horizon - max(1, horizon // 2)
    days = np.empty((num_days, horizon))
    for i in range(num_days):
        ramp = (np.linspace(0.0, 0.35 * span, horizon) if horizon > 1 else np.zeros(1))
        ramp = ramp * rng.uniform(0.7, 1.3)
        day = np.clip(
            demand_lb + rng.uniform(0.0, 0.12 * span, horizon) + ramp,
            demand_lb, demand_ub,
        )
        kind = rng.random()
        if kind >= calm_share:
            if kind < calm_share + surge_share:
                level = demand_lb + rng.uniform(0.55, 0.70) * span
                slot = int(rng.integers(late_start, horizon))
                day[slot] = min(level, demand_ub)
            else:
                level = rng.uniform(demand_ub - 0.10 * span, demand_ub)
                width = 2 if horizon - late_start >= 2 else 1
                slot = int(rng.integers(late_start, horizon - width + 1))
                surge = level + rng.uniform(-0.02, 0.02, width) * span
                day[slot:slot + width] = np.clip(surge, demand_lb, demand_ub)
        days[i] = day
    return DayProfileSet(keys, days, slotting)


def _checked_aggregates(finals: np.ndarray, offline: np.ndarray, original: np.ndarray):
    """AggregateMetrics' rules and aggregates in one pass over the (cells x
    days) stacks of final and offline peaks, against the days' original
    peaks. A failure raises for the first failing cell its first failing
    rule: equally many peaks, at least one; positive peaks; usage in (0, 1];
    a ratio of at least 1. Row means and deviations equal per-row np.mean
    and np.std bit for bit; each ratio divides Python's left-to-right sums
    (np.sum adds pairwise and can move the last digit). Yields each cell's
    mean and deviation of final peaks, mean usage rate and ratio."""
    n_final, n_offline, n_original = len(finals[0]), len(offline[0]), len(original)
    if not n_final == n_offline == n_original > 0:
        raise MismatchedLengths(
            f"{n_final} final peaks, {n_offline} offline peaks, "
            f"{n_original} original peaks: need equally many, at least one"
        )
    # a cell that fails an earlier rule may divide by zero here; it raises below
    with np.errstate(divide="ignore", invalid="ignore"):
        rates = finals / original
        ratios = (np.array([sum(row) for row in finals.tolist()])
                  / np.array([sum(row) for row in offline.tolist()]))
    # written so that a NaN peak fails them
    positive = (offline.min(axis=1) > 0) & (original.min() > 0)
    bad_rates = ~((rates > 0) & (rates <= 1 + 1e-9))
    failed = ~positive | bad_rates.any(axis=1) | (ratios < 1 - 1e-9)
    if failed.any():
        c = int(failed.argmax())
        if not positive[c]:
            raise ValueError("peaks must be positive")
        if bad_rates[c].any():
            raise ValueError(
                f"peak usage rate {float(rates[c, bad_rates[c].argmax()])} escapes (0, 1]")
        raise ValueError(f"performance ratio {float(ratios[c])} < 1: online beat offline")
    return zip(np.mean(finals, axis=1).tolist(), np.std(finals, axis=1).tolist(),
               np.mean(rates, axis=1).tolist(), ratios.tolist())


@dataclass(frozen=True)
class AggregateMetrics:
    """Matched per-day peaks for one policy, as read-only float arrays, and
    the aggregates over them.

    usage rates divide the net (after-discharge) peak by the original peak
    demand of the same day; the performance ratio divides the summed net
    peaks by the summed offline-optimal peaks. Both are checked here: usage
    must land in (0, 1] and the ratio can never drop below 1, because no
    schedule beats the offline optimum. The four aggregates are fields the
    constructor does not take: _stacked checks and fills them, in one pass
    over every cell of a report, and a metrics object built directly is a
    stack of one row (dataclasses.replace builds one, so it checks again).
    """

    final_peaks: np.ndarray
    offline_peaks: np.ndarray
    original_peaks: np.ndarray
    mean_final_peak: float = field(init=False)
    std_final_peak: float = field(init=False)
    mean_usage_rate: float = field(init=False)
    performance_ratio: float = field(init=False)

    __eq__ = _same_fields

    def __post_init__(self):
        (row,) = self._stacked([self.final_peaks], [self.offline_peaks], self.original_peaks)
        vars(self).update(vars(row))

    @classmethod
    def _stacked(cls, finals, offline, original) -> list[AggregateMetrics]:
        """One metrics object per row of finals and offline (a cell's final
        and offline peaks), all checked and aggregated in one pass; a cell's
        arrays are rows of one read-only stack."""
        stacks = [np.array(v, dtype=float) for v in (finals, offline, original)]
        for stack in stacks:
            stack.flags.writeable = False
        finals, offline, original = stacks
        names = [f.name for f in fields(cls)]
        metrics = []
        for final, off, aggregates in zip(finals, offline,
                                          _checked_aggregates(finals, offline, original)):
            cell = object.__new__(cls)
            vars(cell).update(zip(names, (final, off, original, *aggregates)))
            metrics.append(cell)
        return metrics

    @property
    def usage_rates(self) -> np.ndarray:
        return self.final_peaks / self.original_peaks

    @property
    def day_ratios(self) -> np.ndarray:
        return self.final_peaks / self.offline_peaks


@dataclass(frozen=True)
class SweepCell:
    value: float
    algorithm: str
    metrics: AggregateMetrics


@dataclass(frozen=True)
class MonthlyComparison:
    """Monthly peak with the standing-peak threading on and off."""

    month: str
    capacity_rate: float
    independent_peak: float
    threaded_peak: float

    @property
    def extra_reduction_pct(self) -> float:
        return 100.0 * (self.independent_peak - self.threaded_peak) / self.independent_peak


@dataclass(frozen=True)
class ExperimentReport:
    """Everything run_experiment measured on a day set, plus the rendering helpers."""

    profiles: DayProfileSet
    cells: tuple[SweepCell, ...]
    monthly: tuple[MonthlyComparison, ...] = ()

    def cell(self, algorithm: str, value: float) -> SweepCell:
        for cell in self.cells:
            if cell.algorithm == algorithm and abs(cell.value - value) <= 1e-12:
                return cell
        raise KeyError(f"no cell for algorithm={algorithm!r} value={value}")

    def render_text(self) -> str:
        ps = self.profiles
        lines = [
            f"days={ps.num_days} horizon={ps.horizon} "
            f"demand_bounds=[{ps.demand_lb:.6f},{ps.demand_ub:.6f}] "
            f"avg_daily_energy={ps.avg_daily_energy:.6f}",
            "",
            "capacity_rate,algorithm,mean_final_peak,std_final_peak,"
            "mean_usage_rate,performance_ratio",
        ]
        for cell in self.cells:
            m = cell.metrics
            lines.append(
                f"{cell.value:.6f},{cell.algorithm},{m.mean_final_peak:.6f},"
                f"{m.std_final_peak:.6f},{m.mean_usage_rate:.6f},{m.performance_ratio:.6f}"
            )
        if self.monthly:
            lines.append("")
            lines.append(
                "month,capacity_rate,independent_peak,threaded_peak,extra_reduction_pct"
            )
            for row in self.monthly:
                # equal peaks can differ by float noise; print no "-0.000000"
                pct = f"{row.extra_reduction_pct:.6f}".replace("-0.000000", "0.000000")
                lines.append(
                    f"{row.month},{row.capacity_rate:.6f},{row.independent_peak:.6f},"
                    f"{row.threaded_peak:.6f},{pct}"
                )
        return "\n".join(lines) + "\n"

    def series_lines(self) -> list[str]:
        """Plot-ready rows: one line per (axis value, series) pair."""
        lines = ["axis_value,series,mean,stddev"]
        for cell in self.cells:
            m = cell.metrics
            lines.append(
                f"{cell.value:.6f},{cell.algorithm},{m.mean_final_peak:.6f},{m.std_final_peak:.6f}"
            )
        return lines


def _distinct_list_of(ok):
    """A non-empty list or tuple of values that pass ok, none repeated."""
    return lambda v: (isinstance(v, (tuple, list)) and len(v) > 0 and all(map(ok, v))
                      and len(set(v)) == len(v))


# ExperimentConfig's settable fields: the check a value must pass, and what
# it expects. ExperimentConfig applies it to its fields, and the CLI to an
# experiment file's values before it loads the profiles.
EXPERIMENT_FIELDS = {
    "algorithms": (_distinct_list_of(lambda a: isinstance(a, str)),
                   "a non-empty list of distinct algorithm names"),
    "capacity_rates": (_distinct_list_of(is_positive),
                       "a non-empty list of distinct positive finite numbers"),
    "rate_limit_fraction": (lambda v: v is None or is_positive(v),
                            "a positive finite number or null"),
    "monthly": (lambda v: isinstance(v, bool), "true or false"),
    "epsilon": (is_positive, "a positive finite number"),
    "rhc_window": (is_window, "an integer >= 1 or null"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment grid: a policy roster crossed with capacity rates.

    Capacity rates are fractions of the day set's average daily energy.
    rate_limit_fraction, when given, caps the per-slot discharge at that
    fraction of demand_ub. monthly=True additionally threads the standing
    monthly peak through the anytime policy, month by month. rhc_window is
    the rhc policies' look-ahead (None for ceil(T/4)); with an rhc policy in
    the roster it must not exceed the days' horizon.
    """

    profiles: DayProfileSet
    algorithms: tuple[str, ...] = (ALGO_FIXED, ALGO_ANYTIME, ALGO_ANYTIME_DEPLETE)
    capacity_rates: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5)
    rate_limit_fraction: float | None = None
    monthly: bool = False
    epsilon: float = PolicyOptions.bisection_epsilon
    rhc_window: int | None = None

    def __post_init__(self):
        for name, (ok, expected) in EXPERIMENT_FIELDS.items():
            value = getattr(self, name)
            if not ok(value):
                raise ValueError(f"{name} must be {expected}, got {value!r}")
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        object.__setattr__(self, "capacity_rates", tuple(map(float, self.capacity_rates)))
        object.__setattr__(self, "epsilon", float(self.epsilon))
        unknown = [a for a in self.algorithms if a not in ALL_ALGORITHMS]
        if unknown:
            raise UnknownAlgorithm(
                f"{', '.join(unknown)} (choose from {', '.join(ALL_ALGORITHMS)})"
            )
        if any(a in _RHC_VIEWS for a in self.algorithms):
            # raises if the window exceeds the horizon
            RhcConfig(self.rhc_window).resolve_window(self.profiles.horizon)


def _day_peaks(algorithm: str, instance: Instance, values: np.ndarray,
               settings: RunSettings) -> np.ndarray:
    """Each day's final peak under a POLICY_RUNNERS policy, one run per row
    of values, a day matrix checked by core.check_demands."""
    run = POLICY_RUNNERS[algorithm]
    return np.array([run(instance, DemandProfile(instance, row), settings).final_peak
                     for row in values])


def _threaded_month_peak(
    instance: Instance, values: np.ndarray, pi_star: float, epsilon: float
) -> float:
    """Monthly peak when each day's run knows the month's standing peak.

    Only the plain anytime policy is threaded: the depleting variant
    deliberately dumps leftover inventory at the end of a day, which can
    push a slot below the standing monthly peak and would waste storage
    under monthly billing.
    """
    d_op = 0.0
    for row in values:
        profile = DemandProfile(instance, row)
        run = run_anytime(instance, profile, PolicyOptions(
            mode=MODE_ANYTIME, monthly_peak=d_op,
            initial_ratio=pi_star, bisection_epsilon=epsilon,
        ))
        net = profile.values - run.schedule.values
        # a discharging slot must never land below the standing peak
        below = (run.schedule.values > 1e-9) & (net < d_op - 1e-6)
        if below.any():
            k = int(below.argmax())
            raise InfeasibleSchedule(
                f"slot {k + 1} discharged below the monthly peak {d_op}: net {net[k]}"
            )
        d_op = max(d_op, run.final_peak)
    return d_op


def _baseline_finals(config: ExperimentConfig, instances: list, values: np.ndarray,
                     offline: np.ndarray) -> dict[str, np.ndarray]:
    """Each roster baseline's final peaks, one row per rate. A kernel's rows
    are (policy, rate, day), each with its rate's capacity and its policy's
    argument at that rate; the rates share every other instance field."""
    roster = [a for a in config.algorithms if a in _BASELINES]
    energy = config.profiles.avg_daily_energy
    finals = {}
    for kernel in dict.fromkeys(_BASELINES[a][0] for a in roster):
        algorithms = [a for a in roster if _BASELINES[a][0] is kernel]
        cells = [(a, instance, peaks) for a in algorithms for instance, peaks in zip(instances, offline)]
        kwargs = {"capacity": np.repeat([instance.capacity_c for _, instance, _ in cells], len(values))}
        keyword = _BASELINES[algorithms[0]][1]
        if keyword is not None:
            kwargs[keyword] = np.repeat([_BASELINES[a][2](instance, peaks, energy)
                                         for a, instance, peaks in cells], len(values))
        if kernel is rhc_actions:
            kwargs["window"] = config.rhc_window
        peaks = baseline_peaks(kernel, instances[0], np.tile(values, (len(cells), 1)), **kwargs)
        finals.update(zip(algorithms, peaks.reshape(len(algorithms), len(instances), -1)))
    return finals


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Replay the roster over every day for every capacity rate.

    Build every rate's instance (c = rate * avg daily energy). Per rate, in
    order: compute the optimal competitive ratio once if any ratio-pursuit
    policy needs it, and run the certified policies day by day through
    POLICY_RUNNERS (_day_peaks). With monthly=True the anytime policy additionally runs once per
    month with the standing peak threaded through, paired against the
    independent per-day runs of the same policy (the roster's own when it
    holds anytime). Then, over every rate at once, one matrix call solves
    every day's offline optimum and each baseline kernel runs once
    (_baseline_finals). Each (rate, policy) pair is one SweepCell, and one
    pass over every cell's stacked peaks checks and aggregates them all
    (AggregateMetrics._stacked), so rendering the report only formats.
    """
    ps = config.profiles
    original_peaks = ps.day_values.max(axis=1)
    rate_limit = (
        None if config.rate_limit_fraction is None
        else config.rate_limit_fraction * ps.demand_ub
    )
    needs_pi = config.monthly or any(a in _RATIO_ALGOS for a in config.algorithms)
    instances = [ps.instance(rate * ps.avg_daily_energy, rate_limit)
                 for rate in config.capacity_rates]
    values = ps.day_values  # checked when ps was made, on the bounds and horizon every rate shares
    finals: dict[str, list] = {a: [] for a in config.algorithms if a in _RATIO_ALGOS}
    monthly_rows: list[MonthlyComparison] = []
    for rate, instance in zip(config.capacity_rates, instances):
        settings = RunSettings(pi=optimal_cr(instance).pi_star if needs_pi else None,
                               epsilon=config.epsilon)
        for algorithm, peaks in finals.items():
            peaks.append(_day_peaks(algorithm, instance, values, settings))
        if config.monthly:
            independent = (finals[ALGO_ANYTIME][-1] if ALGO_ANYTIME in finals else
                           _day_peaks(ALGO_ANYTIME, instance, values, settings))
            for month, idxs in ps.monthly_groups().items():
                days = list(idxs)
                monthly_rows.append(MonthlyComparison(
                    month=month, capacity_rate=rate,
                    independent_peak=float(independent[days].max()),
                    threaded_peak=_threaded_month_peak(
                        instance, values[days], settings.pi, config.epsilon),
                ))
    capacity = np.repeat([instance.capacity_c for instance in instances], len(values))
    offline = offline_peaks(instances[0], np.tile(values, (len(instances), 1)), capacity)
    finals[ALGO_OFFLINE] = offline.reshape(len(instances), -1)
    finals.update(_baseline_finals(config, instances, values, finals[ALGO_OFFLINE]))
    grid = list(itertools.product(enumerate(config.capacity_rates), config.algorithms))
    metrics = AggregateMetrics._stacked([finals[algorithm][r] for (r, _), algorithm in grid],
                                        [finals[ALGO_OFFLINE][r] for (r, _), _ in grid],
                                        original_peaks)
    return ExperimentReport(
        profiles=ps,
        cells=tuple(SweepCell(rate, algorithm, m)
                    for ((_, rate), algorithm), m in zip(grid, metrics)),
        monthly=tuple(monthly_rows),
    )
