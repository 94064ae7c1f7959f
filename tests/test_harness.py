"""Trace ingestion, synthetic day generators, metrics, and the experiment
driver."""

import itertools
import json
import logging
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

import peakmin.harness as harness
from peakmin.baselines import (
    FUTURE_LOWER,
    FUTURE_MIDPOINT,
    FUTURE_UPPER,
    RhcConfig,
    run_equal_discharge,
    run_equal_ratio,
    run_rhc,
    run_threshold,
)
from peakmin.cli import main as cli_main
from peakmin.core import DemandProfile
from peakmin.errors import (
    CapacityExceedsMinDemand,
    DemandOutOfBounds,
    EmptyTrace,
    MalformedRecord,
    MismatchedLengths,
    PeakMinError,
    UnknownAlgorithm,
)
from peakmin.harness import (
    ALGO_ANYTIME,
    ALGO_FIXED,
    ALGO_OFFLINE,
    ALL_ALGORITHMS,
    AggregateMetrics,
    DayProfileSet,
    ExperimentConfig,
    SlottingConfig,
    TraceColumns,
    ingest_trace,
    load_profile_set,
    load_transactions,
    parse_transactions,
    profile_set_from_json,
    profile_set_to_json,
    run_experiment,
    save_profile_set,
    synthetic_uniform_profiles,
    synthetic_volatile_profiles,
)
from peakmin.offline import solve_offline_pmd

from oracles import (
    Transaction,
    ingest_trace_loop,
    parse_transactions_rows,
    run_experiment_loop,
)

HEADER = "start_iso8601,duration_min,energy_kwh"


def txn(start: str, duration_min: float, energy_kwh: float) -> Transaction:
    return Transaction(datetime.fromisoformat(start), duration_min, energy_kwh)


def _csv(rows) -> str:
    return "\n".join([HEADER] + [f"{t.start.isoformat()},{t.duration_min!r},{t.energy_kwh!r}"
                                  for t in rows]) + "\n"


def _ingest(rows, config):
    """ingest_trace on the columns parse_transactions reads from the records."""
    return ingest_trace(parse_transactions(_csv(rows)), config)


def test_slotting_boundary_aligned_constant_power():
    """30 minutes and 10 kWh starting on a slot boundary split evenly."""
    config = SlottingConfig(slot_minutes=15, on_peak_start="12:00", on_peak_end="12:30")
    ps = _ingest([txn("2024-05-06 12:00", 30, 10.0)], config)
    assert ps.day_keys == ("2024-05-06",)
    assert ps.day_values[0] == pytest.approx([5.0, 5.0])


def test_slotting_straddle_proportional_overlap():
    """A session overlapping two slots by 5 and 25 minutes splits 1:5."""
    config = SlottingConfig(slot_minutes=30, on_peak_start="12:00", on_peak_end="13:00")
    ps = _ingest([txn("2024-05-06 12:25", 30, 6.0)], config)
    assert ps.day_values[0] == pytest.approx([1.0, 5.0])


def test_slotting_three_transaction_golden():
    """Frozen overlap arithmetic for three sessions in a one-hour window:
    8 kWh over the whole hour, 4.5 kWh over 12:10-12:30, 4 kWh over
    12:30-13:00."""
    config = SlottingConfig(slot_minutes=15, on_peak_start="12:00", on_peak_end="13:00")
    ps = _ingest(
        [
            txn("2024-05-06 12:00", 60, 8.0),
            txn("2024-05-06 12:10", 20, 4.5),
            txn("2024-05-06 12:30", 30, 4.0),
        ],
        config,
    )
    assert ps.day_values[0] == pytest.approx([3.125, 5.375, 4.0, 4.0])
    assert sum(ps.day_values[0]) == pytest.approx(16.5, abs=1e-9)
    assert ps.avg_daily_energy == pytest.approx(16.5, abs=1e-9)


def test_ingest_conserves_energy_inside_window():
    """Whatever lands in the window sums to the attributed fractions."""
    config = SlottingConfig(slot_minutes=15, on_peak_start="12:00", on_peak_end="13:00")
    # 60 of the 80 minutes fall inside the window, so 3/4 of the energy does
    ps = _ingest([txn("2024-05-06 11:40", 80, 12.0)], config)
    assert sum(ps.day_values[0]) == pytest.approx(9.0, abs=1e-9)


def test_ingest_crossing_midnight_attributes_next_day():
    config = SlottingConfig(slot_minutes=30, on_peak_start="00:00", on_peak_end="01:00")
    ps = _ingest([txn("2024-05-06 23:30", 120, 8.0)], config)
    # the first day's window gets nothing and is dropped as incomplete
    assert ps.day_keys == ("2024-05-07",)
    assert ps.day_values[0] == pytest.approx([2.0, 2.0])


def test_ingest_drops_incomplete_days_and_logs(caplog):
    config = SlottingConfig(slot_minutes=30, on_peak_start="12:00", on_peak_end="13:00")
    rows = [
        txn("2024-05-06 12:00", 60, 6.0),
        txn("2024-05-07 12:00", 20, 2.0),
    ]
    with caplog.at_level(logging.INFO, logger="peakmin.harness"):
        ps = _ingest(rows, config)
    assert ps.day_keys == ("2024-05-06",)
    assert any("2024-05-07" in rec.message for rec in caplog.records)


def test_ingest_empty_when_no_day_complete():
    config = SlottingConfig(slot_minutes=30, on_peak_start="12:00", on_peak_end="13:00")
    with pytest.raises(EmptyTrace):
        _ingest([txn("2024-05-06 12:00", 20, 2.0)], config)
    no_rows = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0), np.empty(0)
    with pytest.raises(EmptyTrace):
        ingest_trace(TraceColumns(*no_rows), config)


def test_ingest_scale_factor_and_bounds_override():
    config = SlottingConfig(
        slot_minutes=30, on_peak_start="12:00", on_peak_end="13:00",
        scale_factor=2.0, demand_bounds=(1.0, 20.0),
    )
    ps = _ingest([txn("2024-05-06 12:00", 60, 6.0)], config)
    assert ps.day_values[0] == pytest.approx([6.0, 6.0])
    assert (ps.demand_lb, ps.demand_ub) == (1.0, 20.0)


def _awkward_trace(seed: int) -> list[Transaction]:
    """Five days of sessions: a fleet that covers every window below (from
    11:00 to 05:00 the next morning), plus sessions that cross midnight,
    span several days, end exactly on a slot edge or at midnight, carry
    zero energy, or start on a fractional second."""
    rng = np.random.default_rng(seed)
    first = datetime(2024, 2, 27)  # the set crosses the end of February
    rows = [Transaction(first + timedelta(days=d, hours=11), 1080.0, 30.0 + d)
            for d in range(5) for _ in range(2)]
    for _ in range(120):
        day = first + timedelta(days=int(rng.integers(0, 5)))
        kind = int(rng.integers(0, 6))
        if kind == 0:  # crosses midnight
            start = day + timedelta(hours=22, minutes=float(rng.uniform(0, 110)))
            minutes = float(rng.uniform(30, 900))
        elif kind == 1:  # spans several days
            start = day + timedelta(minutes=float(rng.uniform(0, 1440)))
            minutes = float(rng.uniform(1440, 4500))
        elif kind == 2:  # starts and ends on a 15-minute edge
            start = day + timedelta(hours=int(rng.integers(10, 17)),
                                    minutes=15 * int(rng.integers(0, 4)))
            minutes = 15.0 * int(rng.integers(1, 40))
        elif kind == 3:  # ends exactly at midnight
            start = day + timedelta(hours=int(rng.integers(12, 23)))
            minutes = (day + timedelta(days=1) - start).total_seconds() / 60
        else:  # any start (to the microsecond) and a fractional length
            start = day + timedelta(seconds=float(rng.uniform(8, 20) * 3600))
            minutes = round(float(rng.uniform(0.5, 300)), int(rng.integers(0, 4)))
        energy = 0.0 if rng.random() < 0.1 else round(float(rng.uniform(0.1, 60)), 4)
        rows.append(Transaction(start, minutes, energy))
    return rows


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("config", [
    SlottingConfig(),
    SlottingConfig(slot_minutes=7, on_peak_start="22:00", on_peak_end="23:45"),
    SlottingConfig(slot_minutes=30, on_peak_start="00:00", on_peak_end="04:00"),
    SlottingConfig(slot_minutes=1, on_peak_start="16:50", on_peak_end="17:05",
                   scale_factor=0.25, demand_bounds=(1e-6, 500.0)),
], ids=["default", "late-7min", "midnight-30min", "minute-scaled"])
def test_array_ingest_matches_slot_loop_byte_for_byte(seed, config):
    """ingest_trace writes the same JSON, byte for byte, as slotting one
    transaction, calendar day and slot at a time in datetime arithmetic."""
    rows = _awkward_trace(seed)
    got = _ingest(rows, config)
    assert got.num_days >= 4
    assert profile_set_to_json(got) == profile_set_to_json(ingest_trace_loop(rows, config))


def test_ingest_names_days_at_the_ends_of_the_calendar():
    """Days in years 0001 and 9999 keep their ISO names, as datetime gives
    them, and one session's day is slotted as the other's."""
    rows = [Transaction(datetime(1, 1, 1, 11), 600.0, 10.0),
            Transaction(datetime(9999, 12, 31, 11), 600.0, 10.0)]
    got = _ingest(rows, SlottingConfig())
    assert got.day_keys == ("0001-01-01", "9999-12-31")
    assert np.array_equal(got.day_values[0], got.day_values[1])


def _seeded_trace_csv(seed: int) -> str:
    """A month of sessions in the forms a trace export takes: starts to the
    minute, second or microsecond with a "T" or a space, lengths and
    energies rounded to a few decimals or written out in full, and
    whitespace around the fields."""
    rng = np.random.default_rng(seed)
    first = datetime(2024, 1, 1)
    lines = [HEADER]
    for _ in range(400):
        start = first + timedelta(seconds=float(rng.uniform(0, 30 * 86_400)))
        if rng.random() < 0.5:
            start = start.replace(microsecond=0)
        text = start.isoformat(sep=" " if rng.random() < 0.3 else "T")
        minutes = float(rng.uniform(0.01, 2_000))
        energy = float(rng.uniform(0, 80))
        if rng.random() < 0.5:
            minutes, energy = round(minutes, 2), round(energy, 4)
        pad = " " if rng.random() < 0.2 else ""
        lines.append(f"{text},{pad}{minutes!r}{pad},{energy!r}")
    return "\n".join(lines) + "\n"


def _assert_columns_match_rows(text: str) -> None:
    """parse_transactions' columns equal the row-by-row parse exactly: the
    start in microseconds since 1970, the length as timedelta rounds it,
    and both floats as float() reads them."""
    rows = parse_transactions_rows(text)
    got = parse_transactions(text)
    epoch, us = datetime(1970, 1, 1), timedelta(microseconds=1)
    assert got.start_us.dtype == got.duration_us.dtype == np.int64
    assert got.start_us.tolist() == [(t.start - epoch) // us for t in rows]
    assert got.duration_us.tolist() == [timedelta(minutes=t.duration_min) // us for t in rows]
    assert got.duration_min.tolist() == [t.duration_min for t in rows]
    assert got.energy_kwh.tolist() == [t.energy_kwh for t in rows]


@pytest.mark.parametrize("seed", range(4))
def test_columnar_parse_matches_row_parse(seed):
    _assert_columns_match_rows(_seeded_trace_csv(seed))
    _assert_columns_match_rows(_csv(_awkward_trace(seed)))


def test_columnar_parse_matches_row_parse_at_the_edges():
    """Lengths with a fraction of a microsecond, lengths whose microsecond
    fraction is an exact half (m/512 min is 117187.5·m us for odd m, which
    timedelta rounds half to even), sessions at the first and the last
    microsecond of the datetime range, ending just inside year 9999 or
    spanning the whole range, and every ASCII form float() reads."""
    rng = np.random.default_rng(11)
    lines = [HEADER]
    for minutes in rng.uniform(0.001, 1e6, 300).tolist() + (10 ** rng.uniform(-6, 9, 300)).tolist():
        lines.append(f"2024-03-01T12:00:00.000001,{minutes!r},1")
    for m in (1, 3, 5, 511, 1023):
        lines.append(f"2024-03-01 12:00,{m / 512!r},1")
        lines.append(f"2024-03-01 12:00,{12345 + m / 512!r},1")
    whole_range = (datetime.max - datetime.min) // timedelta(minutes=1)
    lines += [
        "9999-12-31T23:00:00,59.99999999,1",
        "9999-12-31T23:00:00,59.999999991666,1",
        "9999-12-31T23:59:59.999998,0.0000000166,1",
        "9999-12-31T23:59:59.999999,0.0000000083,1",
        "0001-01-01T00:00:00,30,1",
        f"0001-01-01T00:00:00,{whole_range},1",
        f"0001-01-01T00:00:00,{float(whole_range) + 0.999},1",
        "2024-03-01 12:00, 7 , 7 ",
        "2024-03-01 12:00,+5,1e-400",
        "2024-03-01 12:00,.5,-0",
        "2024-03-01 12:00,1E2,0",
    ]
    _assert_columns_match_rows("\n".join(lines) + "\n")


# one malformed data row of each kind the row parse reports
BAD_ROWS = [
    "2024-05-06 12:00,30",
    "2024-05-06 12:00,30,10,4",
    "2024-13-06 12:00,30,10",
    "yesterday,30,10",
    "2024-05-06 12:00,thirty,10",
    "2024-05-06 12:00,30,ten",
    "2024-05-06 12:00,1__0,10",
    # float() reads these three, but a number field is ASCII without underscores
    "2024-05-06 12:00,1_000,10",
    "2024-05-06 12:00,5.,\u0661\u0662",
    "2024-05-06 12:00,\uff11\uff12,10",
    "2024-05-06 12:00,,10",
    "2024-05-06 12:00,0,10",
    "2024-05-06 12:00,-5,10",
    "2024-05-06 12:00,1e-400,10",
    "2024-05-06 12:00,nan,10",
    "2024-05-06 12:00,inf,10",
    "2024-05-06 12:00,30,-1",
    "2024-05-06 12:00,30,nan",
    "2024-05-06 12:00,30,inf",
    "2024-05-06T12:00:00+02:00,30,10",
    "2024-05-06T12:00:00Z,30,10",
    "9999-12-31T23:00:00,61,10",
    "0001-01-01T00:00:00,5258964960.01,10",
    "2024-05-06 12:00,1.5e11,10",
    "2024-05-06 12:00,1.6e11,10",
    "2024-05-06 12:00,1e13,10",
    "2024-05-06 12:00,1e300,10",
    # a row breaking several rules is named by the first the row parse meets
    "2024-05-06T12:00:00+02:00,-5,ten",
    "2024-05-06T12:00:00+02:00,1e13,-1",
    "2024-05-06T12:00:00+02:00,1e13,10",
    "2024-13-06 12:00,x,-1",
]
GOOD_ROWS = ["2024-05-06 12:00,30,10", "2024-05-06 13:05:07.25,45.5,3.0"]


def _raised(parse, text: str) -> str:
    with pytest.raises(MalformedRecord) as exc:
        parse(text)
    return str(exc.value)


@pytest.mark.parametrize("bad", BAD_ROWS)
def test_columnar_parse_reports_what_the_row_parse_reports(bad):
    """A malformed row after good ones (and a comment) is reported with the
    row parse's message and line number."""
    text = "\n".join([HEADER, *GOOD_ROWS, "# note", bad, GOOD_ROWS[0]]) + "\n"
    message = _raised(parse_transactions_rows, text)
    assert message.startswith("line 5: ")
    assert _raised(parse_transactions, text) == message


def test_columnar_parse_reports_the_first_of_two_bad_lines():
    """Of two malformed lines, the first is reported, whatever kinds they
    are: a rule the columns check after the pass names an earlier line than
    a line that ended the pass."""
    kinds = BAD_ROWS[::3]
    for first, second in itertools.product(kinds, kinds):
        text = "\n".join([HEADER, GOOD_ROWS[0], first, GOOD_ROWS[1], second]) + "\n"
        message = _raised(parse_transactions_rows, text)
        assert message.startswith("line 3: ")
        assert _raised(parse_transactions, text) == message, (first, second)


def _canonical_trace_csv(seed: int, rows: int = 400) -> str:
    """A trace in the canonical form, which parses in bulk: starts to the
    second on any day of years 0001-9999, on Feb 29 of leap years and on the
    days around it in others, and numbers as integers, with a fraction, in
    full or in exponent form."""
    rng = np.random.default_rng(seed)
    ordinals = rng.integers(date(1, 1, 1).toordinal(), date(9999, 11, 30).toordinal(), rows)
    days = [date.fromordinal(int(k)) for k in ordinals]
    days += [date(year, 2, 29) for year in (4, 1600, 2000, 2024, 9996)]
    days += [date(year, month, day) for year in (1, 1900, 2023, 2100, 9999)
             for month, day in ((2, 28), (3, 1))]
    forms = (lambda x: str(int(x) + 1), lambda x: f"{x:.2f}", repr,
             lambda x: f"{x:.3e}", lambda x: f"{x:E}", lambda x: f"{x:g}")
    lines = [HEADER]
    for day in days:
        start = datetime.combine(day, datetime.min.time()) + timedelta(
            seconds=int(rng.integers(86_400)))
        minutes, energy = float(rng.uniform(0.01, 2_000)), float(rng.uniform(0, 80))
        write_minutes, write_energy = (forms[k] for k in rng.integers(len(forms), size=2))
        lines.append(f"{start.isoformat()},{write_minutes(minutes)},{write_energy(energy)}")
    return "\n".join(lines) + "\n"


def _assert_parse_matches_rows(text: str) -> None:
    """parse_transactions gives the row parse's columns, or its message."""
    try:
        parse_transactions_rows(text)
    except MalformedRecord as exc:
        assert _raised(parse_transactions, text) == str(exc)
    else:
        _assert_columns_match_rows(text)


def _with_row(text: str, index: int, edit) -> str:
    """text with line index (0 is the header) replaced by edit(line)."""
    lines = text.split("\n")
    lines[index] = edit(lines[index])
    return "\n".join(lines)


@pytest.mark.parametrize("seed", range(3))
def test_bulk_parse_matches_row_parse_on_canonical_traces(seed):
    """A canonical trace parses into the row parse's columns bit for bit."""
    _assert_columns_match_rows(_canonical_trace_csv(seed))


def test_trace_columns_compare_column_by_column():
    """Two parses of one trace are equal; == between them used to raise
    ValueError (the truth value of an array is ambiguous)."""
    text = _canonical_trace_csv(7)
    columns = parse_transactions(text)
    assert columns == parse_transactions(text) and not columns != parse_transactions(text)
    header, _, rest = text.split("\n", 2)
    fewer = parse_transactions(f"{header}\n{rest}")
    assert columns != fewer and not columns == fewer and columns != tuple(columns)


def test_bulk_parse_takes_space_separated_starts():
    """Starts written with a space between date and time (as
    datetime.isoformat(sep=" ") writes them), in every row or in one, parse
    into the columns of the T-separated spelling and of the row parse, bit
    for bit."""
    text = _canonical_trace_csv(7)
    columns = parse_transactions(text)
    for spaced in (text.replace("T", " "), _with_row(text, 50, lambda row: row.replace("T", " "))):
        assert spaced != text
        got = parse_transactions(spaced)
        for name in TraceColumns._fields:
            assert np.array_equal(getattr(got, name), getattr(columns, name)), name
        _assert_columns_match_rows(spaced)


# text outside the canonical form: lines to strip or skip, and starts in forms
# numpy's datetime64 reads otherwise than fromisoformat or not at all
FALLBACK_TRIGGERS = {
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "comment": lambda text: _with_row(text, 50, lambda row: f"# note\n{row}"),
    "blank-line": lambda text: _with_row(text, 50, lambda row: f"\n{row}"),
    "spaces": lambda text: _with_row(text, 50, lambda row: f" {row.replace(',', ' , ')}\t"),
    "fractional-second": lambda text: _with_row(text, 50, lambda row: row.replace(",", ".25,", 1)),
    "utc-offset": lambda text: _with_row(text, 50, lambda row: row.replace(",", "+02:00,", 1)),
    "start-to-the-minute": lambda text: _with_row(text, 50, lambda row: row[:16] + row[19:]),
    # starts as long as a canonical one, in another form
    "offset-start": lambda text: _with_row(text, 50, lambda row: row[:13] + "+02:00" + row[19:]),
    "basic-format-start": lambda text: _with_row(
        text, 50, lambda row: row[:19].replace("-", "").replace(":", "") + ".250" + row[19:]),
    "basic-format-date": lambda text: _with_row(text, 50, lambda row: row[:10].replace("-", "")
                                                + row[10:]),
    "basic-format-time": lambda text: _with_row(text, 50, lambda row: row[:13] + row[14:16]
                                                + row[19:]),
    "week-date-start": lambda text: _with_row(text, 50, lambda row: "2024-W19-1" + row[10:]),
    "lowercase-t-start": lambda text: _with_row(text, 50, lambda row: row.replace("T", "t", 1)),
    "twenty-digit-fraction": lambda text: _with_row(
        text, 50, lambda row: row.replace(",", ".12345678901234567890,", 1)),
    "two-then-four-fields": lambda text: _with_row(
        text, 50, lambda row: "2024-05-06T12:00:00,30\n10,2024-05-06T12:00:00,30,10"),
    "byte-order-mark": lambda text: "\ufeff" + text,
}


@pytest.mark.parametrize("trigger", FALLBACK_TRIGGERS)
def test_fallback_gives_what_the_row_parse_gives(trigger):
    """A trace with one non-canonical line gives the row parse's columns, or
    its message and line number."""
    _assert_parse_matches_rows(FALLBACK_TRIGGERS[trigger](_canonical_trace_csv(7, rows=100)))


def test_a_listed_line_holding_a_line_break_is_one_line():
    """Lines given as a list are numbered one to an item, as the row parse
    numbers them, also where an item holds a line break, which fromisoformat
    reads as the separator of a start."""
    for lines in ([HEADER, "2024-05-06\n12:00,30,10", GOOD_ROWS[0]],
                  [HEADER, GOOD_ROWS[0], "2024-05-06 12:00,30,1\n0", GOOD_ROWS[1]]):
        _assert_parse_matches_rows(lines)


# a bad start, length or energy in the middle of a canonical trace
BAD_FIELDS = [
    ("start", "0000-06-01T12:00:00"),  # numpy's datetime64 reads it
    ("start", "2023-02-29T12:00:00"),
    ("start", "1900-02-29T12:00:00"),
    ("start", "2024-05-06T24:00:00"),
    ("start", "2024-05-06T23:59:60"),
    ("minutes", "1_000"),
    ("energy", "\u0661\u0662"),
    ("minutes", "nan"),
    ("energy", "-1.5"),
]


@pytest.mark.parametrize("field, value", BAD_FIELDS)
def test_bad_field_in_a_canonical_trace_is_reported_as_the_row_parse_reports_it(field, value):
    fields = {"start": "2024-05-06T12:00:00", "minutes": "30", "energy": "10", field: value}
    text = _with_row(_canonical_trace_csv(8, rows=100), 50, lambda row: ",".join(fields.values()))
    message = _raised(parse_transactions_rows, text)
    assert message.startswith("line 51: ")
    assert _raised(parse_transactions, text) == message


@pytest.mark.parametrize("newline, mark", [("\n", "\x0c"), ("\n", "\x1c"), ("\n", "\x85"),
                                           ("\r\n", ""), ("\r", "")],
                         ids=["form-feed", "file-separator", "next-line", "crlf", "cr"])
def test_load_transactions_numbers_lines_as_iterating_the_file_does(tmp_path, newline, mark):
    """A file's lines end at "\n" once universal newlines have turned "\r\n"
    and "\r" into it, not at the other breaks str.splitlines() ends a line
    at. Reading the text whole keeps that count."""
    rows = [HEADER, f"2024-05-06T12:00:00,30,10{mark}", "2024-05-06T14:00:00,30,ten"]
    for lines, problem in ((rows[:2], None), (rows, "line 3: ")):
        path = tmp_path / "trace.csv"
        path.write_bytes(newline.join(lines).encode() + newline.encode())
        with open(path, encoding="utf-8-sig") as fh:
            try:
                expected = parse_transactions_rows(fh)
            except MalformedRecord as exc:
                assert str(exc).startswith(problem)
                assert _raised(load_transactions, path) == str(exc)
                continue
        assert problem is None
        assert load_transactions(path).energy_kwh.tolist() == [t.energy_kwh for t in expected]


def test_load_transactions_reads_a_byte_order_mark(tmp_path):
    """Excel's "CSV UTF-8" starts the file with a byte-order mark, which
    used to make the header a mismatch."""
    path = tmp_path / "trace.csv"
    path.write_text(f"\ufeff{HEADER}\n{GOOD_ROWS[0]}\n", encoding="utf-8")
    assert load_transactions(path).energy_kwh.tolist() == [10.0]


def test_parse_transactions_reports_line_numbers():
    text = "start_iso8601,duration_min,energy_kwh\n2024-05-06 12:00,30,ten\n"
    with pytest.raises(MalformedRecord, match="line 2"):
        parse_transactions(text)
    with pytest.raises(MalformedRecord, match="line 3"):
        parse_transactions(
            "start_iso8601,duration_min,energy_kwh\n"
            "2024-05-06 12:00,30,10\n"
            "2024-05-06 13:00,30\n"
        )


def test_parse_transactions_header_rules():
    with pytest.raises(MalformedRecord, match="header"):
        parse_transactions("2024-05-06 12:00,30,10\n")
    with pytest.raises(MalformedRecord):
        parse_transactions("")
    with pytest.raises(EmptyTrace):
        parse_transactions("start_iso8601,duration_min,energy_kwh\n# just a comment\n")


def test_parse_transactions_skips_blank_and_comment_lines():
    rows = parse_transactions(
        "# exported 2024-05-07\n\n"
        "start_iso8601,duration_min,energy_kwh\n\n"
        "2024-05-06 12:00,30,10\n"
        "# trailing note\n"
    )
    assert rows.energy_kwh.tolist() == [10.0]


@pytest.mark.parametrize(
    "row, message",
    [("2024-05-06T12:00:00+02:00,30,10", "UTC offset"), ("2024-05-06 12:00,1e13,10", "9999")],
    ids=["utc-offset", "end-overflows"],
)
def test_parse_transactions_rejects_unslottable_start_or_end(row, message):
    """A start with a UTC offset cannot be compared with the naive slot
    boundaries, and a session ending past year 9999 has no end: ingest_trace
    once raised TypeError and OverflowError on them. Both are malformed
    records, named by their line."""
    with pytest.raises(MalformedRecord, match=f"line 2: .*{message}"):
        parse_transactions(f"start_iso8601,duration_min,energy_kwh\n{row}\n")


def test_slotting_config_validation():
    with pytest.raises(ValueError):
        SlottingConfig(slot_minutes=0)
    with pytest.raises(ValueError):
        SlottingConfig(on_peak_start="13:00", on_peak_end="12:00")
    with pytest.raises(ValueError):
        SlottingConfig(slot_minutes=45, on_peak_start="12:00", on_peak_end="13:00")
    with pytest.raises(ValueError):
        SlottingConfig(scale_factor=0.0)
    with pytest.raises(ValueError):
        SlottingConfig(demand_bounds=(0.0, 1.0))
    assert SlottingConfig().horizon == 20


@pytest.mark.parametrize("slot_minutes", [15.0, True], ids=["float", "bool"])
def test_slotting_config_requires_an_integer_slot(slot_minutes):
    """A float slot length used to pass and then fail inside numpy in
    ingest_trace, and True was read as a 1-minute slot (horizon 300)."""
    with pytest.raises(ValueError, match="slot_minutes must be a positive integer"):
        SlottingConfig(slot_minutes=slot_minutes)


def test_a_window_may_end_at_midnight_written_24_00(tmp_path):
    """24:00 ends a window at the next midnight, so a whole day holds 96
    15-minute slots and the generators, whose window opens at 12:00, reach
    T=48. It starts no window, and no later clock time ends one. Ingested
    over the whole day (also from the CLI), sessions that cover two days,
    one of them across midnight, keep all their energy in the windows."""
    assert SlottingConfig(on_peak_start="00:00", on_peak_end="24:00").horizon == 96
    for bad in ({"on_peak_start": "24:00", "on_peak_end": "24:00"},
                {"on_peak_end": "24:01"}, {"on_peak_end": "25:00"}):
        with pytest.raises(ValueError, match="clock time out of range"):
            SlottingConfig(**bad)

    ps = synthetic_volatile_profiles(1, 48, 100, 400, seed=1)
    assert (ps.horizon, ps.slotting.on_peak_end) == (48, "24:00")
    text = profile_set_to_json(ps)
    assert '"on_peak_end":"24:00"' in text
    assert profile_set_from_json(text) == ps

    rows = [txn("2024-05-06 00:00", 1440, 48.0), txn("2024-05-06 18:00", 720, 24.0),
            txn("2024-05-07 06:00", 1080, 36.0)]
    whole_day = SlottingConfig(slot_minutes=60, on_peak_start="00:00", on_peak_end="24:00")
    ingested = _ingest(rows, whole_day)
    assert ingested.day_keys == ("2024-05-06", "2024-05-07")
    assert ingested.day_values.sum(axis=1) == pytest.approx([60.0, 48.0], abs=1e-9)
    assert ingested.day_values.sum() == pytest.approx(sum(t.energy_kwh for t in rows), abs=1e-9)

    trace, out = tmp_path / "trace.csv", tmp_path / "days.json"
    trace.write_text(_csv(rows))
    assert cli_main(["ingest", "--input", str(trace), "--output", str(out), "--slot-minutes",
                     "60", "--window-start", "00:00", "--window-end", "24:00"]) == 0
    assert load_profile_set(out) == ingested


_PROFILE_SET = dict(
    day_keys=("2024-05-06", "2024-05-07"), day_values=((1.0, 2.0, 1.0, 2.0), (2.0, 1.0, 2.0, 1.0)),
    slot_minutes=15, on_peak_start="12:00", on_peak_end="13:00", scale_factor=1.0,
    demand_lb=1.0, demand_ub=2.0,
)


def _profile_set(day_keys, day_values, demand_lb, demand_ub, **slotting):
    """A DayProfileSet from the flat fields its JSON holds (no mean energy)."""
    return DayProfileSet(day_keys, day_values,
                         SlottingConfig(**slotting, demand_bounds=(demand_lb, demand_ub)))


@pytest.mark.parametrize("field, value", [
    ("slot_minutes", 15.7), ("slot_minutes", 0), ("slot_minutes", -5),
    ("on_peak_end", "23:00"), ("on_peak_start", "garbage"), ("on_peak_start", 12),
    ("scale_factor", -1.0), ("scale_factor", float("nan")),
    ("day_keys", ("2024-13-40", "2024-05-07")), ("day_keys", ("2024-05-06", "2024-05-06")),
    ("day_keys", ("2024-05-07", "2024-05-06")), ("day_keys", ("2024-05-06", "20240507")),
    ("on_peak_start", "1_2:00"), ("on_peak_end", "13:0"), ("on_peak_start", "+12:00"),
    ("on_peak_start", " 12:00"), ("on_peak_end", "\u0661\u0663:00"),
    ("day_values", (("1.0", "2.0", "1.0", "2.0"), ("2.0", "1.0", "2.0", "1.0"))),
    ("day_values", ((1.0, 2.0, 1.0, "2.0"), (2.0, 1.0, 2.0, 1.0))),
    ("day_values", ((True, 2.0, 1.0, 2.0), (2.0, 1.0, 2.0, 1.0))),
    ("scale_factor", True), ("demand_lb", True), ("on_peak_end", "24:00"),
])
def test_profile_set_rejects_metadata_that_contradicts_its_days(field, value):
    """Each of these loaded once: a slot length truncated to 15 or below 1,
    a window that is not the rows' 4 slots or not a clock time (int() read
    "1_2", "+12", " 12" and Arabic-Indic digits as hours, and "13:0" as
    13:00), a scale that is not positive, day keys that are no ISO dates or
    out of order, day values that are strings or booleans (float() read
    "2.0" and True as numbers), and a scale or bound that is a boolean
    (true was read as 1 and written back as true)."""
    _profile_set(**_PROFILE_SET)
    with pytest.raises(ValueError):
        _profile_set(**{**_PROFILE_SET, field: value})
    payload = json.loads(profile_set_to_json(_profile_set(**_PROFILE_SET)))
    with pytest.raises(MalformedRecord):
        profile_set_from_json(json.dumps({**payload, field: value}))


def test_profile_set_json_roundtrip_is_byte_stable(tmp_path):
    ps = synthetic_uniform_profiles(4, 5, 1.0, 3.0, seed=9)
    text = profile_set_to_json(ps)
    again = profile_set_from_json(text)
    assert again == ps
    assert ps != text  # another type compares unequal, not by field
    assert profile_set_to_json(again) == text
    path = tmp_path / "days.json"
    save_profile_set(ps, path)
    assert load_profile_set(path) == ps


def test_profile_set_file_from_before_the_slotting_record_loads_unchanged(tmp_path):
    """The checked-in ingest output, written when a day set kept the bounds
    and mean energy it was given, re-saves byte for byte, and the derived
    bounds and mean equal the file's bit for bit. A stated mean off by 1e-3
    relative is rejected; one within 1e-6 gives way to the computed mean."""
    path = Path(__file__).parent / "golden" / "ingest_days.json"
    text = path.read_text(encoding="utf-8")
    payload = json.loads(text)
    ps = load_profile_set(path)
    save_profile_set(ps, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_text(encoding="utf-8") == text
    for key in ("demand_lb", "demand_ub", "avg_daily_energy"):
        assert getattr(ps, key).hex() == payload[key].hex(), key
    mean = payload["avg_daily_energy"]
    with pytest.raises(MalformedRecord, match="disagrees with the profile mean"):
        profile_set_from_json(json.dumps({**payload, "avg_daily_energy": mean * (1 + 1e-3)}))
    near = profile_set_from_json(json.dumps({**payload, "avg_daily_energy": mean * (1 + 1e-9)}))
    assert near == ps and near.avg_daily_energy == mean


def test_profile_set_json_rejects_garbage():
    with pytest.raises(MalformedRecord):
        profile_set_from_json("not json at all")
    with pytest.raises(MalformedRecord):
        profile_set_from_json("[1, 2, 3]")
    with pytest.raises(MalformedRecord, match="missing keys"):
        profile_set_from_json('{"day_keys": []}')


def test_profile_set_validation():
    """A stated mean energy can only come from a file; the loader checks it."""
    base = dict(
        slot_minutes=15, on_peak_start="12:00", on_peak_end="12:30",
        scale_factor=1.0, demand_lb=1.0, demand_ub=2.0,
    )
    with pytest.raises(ValueError):
        _profile_set(day_keys=("2024-05-06", "2024-05-07"), day_values=((1.0, 2.0),), **base)
    with pytest.raises(DemandOutOfBounds):
        _profile_set(day_keys=("2024-05-06",), day_values=((1.0, 2.5),), **base)
    good = json.loads(profile_set_to_json(
        _profile_set(day_keys=("2024-05-06",), day_values=((1.0, 2.0),), **base)))
    assert good["avg_daily_energy"] == 3.0
    with pytest.raises(MalformedRecord, match="avg_daily_energy 4.0 disagrees"):
        profile_set_from_json(json.dumps({**good, "avg_daily_energy": 4.0}))
    with pytest.raises(ValueError, match="share one positive horizon"):
        _profile_set(day_keys=("2024-05-06", "2024-05-07"),
                     day_values=((1.0, 2.0), (1.0, 2.0, 1.0)), **base)


def test_profile_set_takes_the_demand_check_bound_rule():
    """A day a hair (2e-7) above demand_ub used to load, within the old
    1e-9 * max(1, demand_ub) allowance, and then fail run_experiment's
    demand check; it now fails when the set is built, as check_demands
    fails it. Within EPS_KWH loads."""
    base = dict(day_keys=("2024-05-06",), slot_minutes=15, on_peak_start="12:00",
                on_peak_end="13:00", scale_factor=1.0, demand_lb=100.0, demand_ub=400.0)
    with pytest.raises(DemandOutOfBounds, match="demand entries outside"):
        _profile_set(day_values=((100.0, 200.0, 400.0 + 2e-7, 300.0),), **base)
    ps = _profile_set(day_values=((100.0, 200.0, 400.0 + 5e-10, 300.0),), **base)
    run_experiment(ExperimentConfig(profiles=ps, algorithms=(ALGO_OFFLINE, "eql-dis"),
                                    capacity_rates=(0.1,)))


def test_numpy_integer_slot_minutes_round_trips_through_json():
    """A numpy integer slot length is stored as a Python int, so the day set
    it slots writes to JSON (it raised TypeError) and reads back equal."""
    config = SlottingConfig(slot_minutes=np.int64(15), on_peak_end="13:00")
    assert type(config.slot_minutes) is int
    ps = _ingest([txn("2024-05-06 12:00", 60, 4.0)], config)
    assert type(ps.slotting.slot_minutes) is int
    again = profile_set_from_json(profile_set_to_json(ps))
    assert again == ps and again.slotting.slot_minutes == 15
    direct = _profile_set(**{**_PROFILE_SET, "slot_minutes": np.int64(15)})
    assert type(direct.slotting.slot_minutes) is int


def test_profile_set_rejects_nan():
    """A NaN value fails the bounds check, with stated bounds or without
    (then its bounds would be NaN); a NaN mean energy can only come from a
    file, and the loader rejects it."""
    base = dict(
        day_keys=("2024-05-06",), slot_minutes=15, on_peak_start="12:00",
        on_peak_end="12:30", scale_factor=1.0, demand_lb=1.0, demand_ub=2.0,
    )
    with pytest.raises(DemandOutOfBounds, match="demand entries outside"):
        _profile_set(day_values=((1.0, float("nan")),), **base)
    with pytest.raises(ValueError, match="demand_bounds"):
        DayProfileSet(("2024-05-06",), ((1.0, float("nan")),),
                      SlottingConfig(15, "12:00", "12:30"))
    # Python's json reads NaN
    good = json.loads(profile_set_to_json(_profile_set(day_values=((1.0, 2.0),), **base)))
    for payload in ({**good, "day_values": [[1.0, float("nan")]]},
                    {**good, "avg_daily_energy": float("nan")}):
        with pytest.raises(MalformedRecord):
            profile_set_from_json(json.dumps(payload))


def test_monthly_groups_split_on_calendar_month():
    ps = synthetic_uniform_profiles(4, 2, 1.0, 2.0, seed=3, start_date="2024-03-30")
    assert ps.monthly_groups() == {"2024-03": (0, 1), "2024-04": (2, 3)}


def test_synthetic_uniform_deterministic_and_bounded():
    a = synthetic_uniform_profiles(6, 4, 2.0, 5.0, seed=11)
    b = synthetic_uniform_profiles(6, 4, 2.0, 5.0, seed=11)
    assert a == b
    values = a.values()
    assert values.min() >= 2.0 and values.max() <= 5.0
    assert a.num_days == 6 and a.horizon == 4
    assert a.avg_daily_energy == pytest.approx(values.sum(axis=1).mean())


def test_synthetic_volatile_deterministic_and_bounded():
    a = synthetic_volatile_profiles(40, 8, 2.0, 6.0, seed=404)
    b = synthetic_volatile_profiles(40, 8, 2.0, 6.0, seed=404)
    assert a == b
    values = a.values()
    assert values.min() >= 2.0 and values.max() <= 6.0
    # default shares include near-ceiling surge days
    assert values.max() >= 6.0 - 0.12 * 4.0


def test_synthetic_volatile_share_knobs():
    calm = synthetic_volatile_profiles(30, 8, 2.0, 6.0, seed=1, calm_share=1.0,
                                       surge_share=0.0)
    # without surge days nothing reaches the top of the range
    assert calm.values().max() < 2.0 + 0.75 * 4.0
    with pytest.raises(ValueError):
        synthetic_volatile_profiles(5, 4, 2.0, 6.0, seed=1, calm_share=0.9,
                                    surge_share=0.2)
    with pytest.raises(ValueError):
        synthetic_volatile_profiles(0, 4, 2.0, 6.0, seed=1)
    with pytest.raises(ValueError):
        synthetic_uniform_profiles(5, 4, -1.0, 6.0, seed=1)


@pytest.mark.parametrize("generate", [synthetic_uniform_profiles, synthetic_volatile_profiles])
def test_synthetic_generators_take_the_slotting_rules(generate):
    """The generators cut 15-minute slots from 12:00 and have no slot length
    knob (slot_minutes=15.0 failed formatting the window end); a zero day
    count or horizon fails the day set's or the slotting's own check."""
    ps = generate(2, 4, 1.0, 2.0, seed=1)
    assert ps.slotting == SlottingConfig(15, "12:00", "13:00", demand_bounds=(1.0, 2.0))
    with pytest.raises(TypeError, match="slot_minutes"):
        generate(2, 4, 1.0, 2.0, seed=1, slot_minutes=15)
    with pytest.raises(ValueError, match="at least one day is required"):
        generate(0, 4, 1.0, 2.0, seed=1)
    with pytest.raises(ValueError, match="on-peak window must end after it starts"):
        generate(2, 0, 1.0, 2.0, seed=1)


def test_metrics_fixture():
    m = AggregateMetrics([6.0, 4.0], [5.0, 3.0], [8.0, 5.0])
    assert m.performance_ratio == pytest.approx(1.25)
    assert m.usage_rates == pytest.approx((0.75, 0.8))
    assert m.day_ratios == pytest.approx((1.2, 4.0 / 3.0))
    assert m.mean_final_peak == pytest.approx(5.0)
    assert m.std_final_peak == pytest.approx(1.0)
    assert m.mean_usage_rate == pytest.approx(0.775)
    assert m == AggregateMetrics([6.0, 4.0], [5.0, 3.0], [8.0, 5.0])
    assert m != "metrics"  # another type compares unequal, not by field


def test_metrics_trivial_cases():
    match = AggregateMetrics([5.0, 3.0], [5.0, 3.0], [8.0, 5.0])
    assert match.performance_ratio == pytest.approx(1.0)
    idle = AggregateMetrics([8.0, 5.0], [5.0, 3.0], [8.0, 5.0])
    assert idle.usage_rates == pytest.approx((1.0, 1.0))


def test_metrics_validation():
    with pytest.raises(MismatchedLengths):
        AggregateMetrics([6.0], [5.0, 3.0], [8.0, 5.0])
    with pytest.raises(MismatchedLengths):
        AggregateMetrics([], [], [])
    with pytest.raises(ValueError):
        # summed net peaks below the offline optimum are impossible
        AggregateMetrics([4.0, 2.0], [5.0, 3.0], [8.0, 5.0])
    with pytest.raises(ValueError):
        # a net peak above the original peak means the policy added demand
        AggregateMetrics([9.0, 4.0], [5.0, 3.0], [8.0, 5.0])
    with pytest.raises(ValueError, match="peaks must be positive"):
        AggregateMetrics([6.0, 4.0], [5.0, 0.0], [8.0, 5.0])


@pytest.mark.parametrize("cells,days", [(1, 1), (1, 9), (7, 1), (40, 30), (3, 257)])
def test_stacked_metrics_match_per_row_calls_bit_for_bit(cells, days):
    """One pass over a (cells x days) stack gives every cell the aggregates
    per-row np.mean, np.std and Python sums give, bit for bit, and the same
    metrics as building that cell alone."""
    rng = np.random.default_rng(cells * 1000 + days)
    for _ in range(20):
        original = rng.uniform(5.0, 10.0, days)
        offline = rng.uniform(1.0, 2.0, (cells, days))
        finals = np.minimum(rng.uniform(2.0, 5.0, (cells, days)) * rng.uniform(1.0, 3.0),
                            original)
        stacked = AggregateMetrics._stacked(list(finals), list(offline), original)
        assert len(stacked) == cells
        for f, o, m in zip(finals, offline, stacked):
            assert m.mean_final_peak == float(np.mean(f))
            assert m.std_final_peak == float(np.std(f))
            assert m.mean_usage_rate == float(np.mean(f / original))
            assert m.performance_ratio == sum(f.tolist()) / sum(o.tolist())
            alone = AggregateMetrics(f, o, original)
            assert m == alone
            assert ([m.mean_final_peak, m.std_final_peak, m.mean_usage_rate, m.performance_ratio]
                    == [alone.mean_final_peak, alone.std_final_peak, alone.mean_usage_rate,
                        alone.performance_ratio])
            for peaks in (m.final_peaks, m.offline_peaks, m.original_peaks):
                assert not peaks.flags.writeable


# Stacks of three cells whose first failing cell is the second; it fails two
# rules, and the third cell fails another, so only the first failing rule of
# the first failing cell may raise, with the message given.
_ORIGINAL = [8.0, 5.0]
_FAILING_STACKS = {
    "positive": ([[6.0, 4.0], [9.0, 4.0], [4.0, 2.0]],
                 [[5.0, 3.0], [5.0, 0.0], [5.0, 3.0]], "peaks must be positive"),
    "usage": ([[6.0, 4.0], [9.0, 1.0], [6.0, 4.0]],
              [[5.0, 3.0], [5.0, 6.0], [5.0, -1.0]], "peak usage rate 1.125 escapes (0, 1]"),
    "usage-nan": ([[6.0, 4.0], [np.nan, 4.0], [4.0, 2.0]],
                  [[5.0, 3.0], [5.0, 3.0], [5.0, 3.0]], "peak usage rate nan escapes (0, 1]"),
    "ratio": ([[6.0, 4.0], [4.0, 2.0], [9.0, 4.0]],
              [[5.0, 3.0], [5.0, 3.0], [5.0, 3.0]],
              "performance ratio 0.75 < 1: online beat offline"),
}


@pytest.mark.parametrize("rule", list(_FAILING_STACKS))
def test_stacked_metrics_raise_what_the_first_failing_cell_raises(rule):
    finals, offline, message = _FAILING_STACKS[rule]
    with pytest.raises(ValueError) as alone:
        AggregateMetrics(finals[1], offline[1], _ORIGINAL)
    with pytest.raises(ValueError) as stacked:
        AggregateMetrics._stacked(finals, offline, _ORIGINAL)
    assert type(stacked.value) is type(alone.value) is ValueError
    assert str(stacked.value) == str(alone.value) == message


def test_stacked_metrics_check_lengths_first():
    finals, offline, _ = _FAILING_STACKS["positive"]
    with pytest.raises(MismatchedLengths) as alone:
        AggregateMetrics(finals[0], offline[0], _ORIGINAL[:1])
    with pytest.raises(MismatchedLengths, match="2 final peaks, 2 offline peaks, 1 original"):
        AggregateMetrics._stacked(finals, offline, _ORIGINAL[:1])
    assert str(alone.value).startswith("2 final peaks, 2 offline peaks, 1 original")


def test_experiment_plumbing_single_day():
    ps = synthetic_uniform_profiles(1, 3, 2.0, 4.0, seed=7)
    report = run_experiment(ExperimentConfig(
        profiles=ps,
        algorithms=(ALGO_OFFLINE, ALGO_FIXED, ALGO_ANYTIME),
        capacity_rates=(0.2,),
        epsilon=1e-3,
    ))
    assert len(report.cells) == 3
    assert report.cell(ALGO_OFFLINE, 0.2).metrics.performance_ratio == pytest.approx(1.0)
    assert report.cell(ALGO_FIXED, 0.2).metrics.performance_ratio >= 1.0 - 1e-9
    with pytest.raises(KeyError):
        report.cell(ALGO_OFFLINE, 0.9)


def test_experiment_anytime_peak_nonincreasing_in_capacity():
    ps = synthetic_volatile_profiles(10, 4, 2.0, 6.0, seed=17)
    report = run_experiment(ExperimentConfig(
        profiles=ps,
        algorithms=(ALGO_ANYTIME,),
        capacity_rates=(0.05, 0.15, 0.3),
        epsilon=1e-3,
    ))
    means = [report.cell(ALGO_ANYTIME, r).metrics.mean_final_peak
             for r in (0.05, 0.15, 0.3)]
    assert means[0] >= means[1] - 1e-9
    assert means[1] >= means[2] - 1e-9


def test_experiment_monthly_direction_small():
    """Threading the running monthly peak through a month of days can only
    help the month's final peak."""
    ps = synthetic_volatile_profiles(34, 4, 2.0, 6.0, seed=5, start_date="2024-03-25")
    report = run_experiment(ExperimentConfig(
        profiles=ps,
        algorithms=(ALGO_ANYTIME,),
        capacity_rates=(0.1,),
        monthly=True,
        epsilon=1e-3,
    ))
    assert {row.month for row in report.monthly} == {"2024-03", "2024-04"}
    for row in report.monthly:
        assert row.threaded_peak <= row.independent_peak + 1e-9
        assert row.extra_reduction_pct >= -1e-7


def test_monthly_floor_violation_is_a_domain_error(monkeypatch):
    """A threaded day that discharges below the month's standing peak raises
    a PeakMinError (exit code 2 from the CLI), not a bare assertion."""
    ps = synthetic_uniform_profiles(3, 4, 2.0, 6.0, seed=3, start_date="2024-03-01")
    # greedy discharge from the first slot: day 2 lands below day 1's peak
    monkeypatch.setattr(
        harness, "run_anytime",
        lambda instance, demand, options=None: run_threshold(instance, demand, 0.0),
    )
    config = ExperimentConfig(
        profiles=ps, algorithms=(ALGO_OFFLINE,), capacity_rates=(0.2,), monthly=True,
    )
    with pytest.raises(PeakMinError, match="below the monthly peak"):
        run_experiment(config)


def test_monthly_experiment_reuses_the_roster_anytime_runs(monkeypatch):
    """With anytime in the roster, the monthly table's independent peaks are
    that cell's peaks: anytime runs twice per day (roster and threaded), not
    three times, and the monthly rows match a roster without anytime."""
    ps = synthetic_volatile_profiles(5, 4, 2.0, 6.0, seed=5, start_date="2024-03-29")
    real = harness.run_anytime
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "run_anytime", counting)
    with_anytime = run_experiment(ExperimentConfig(
        profiles=ps, algorithms=(ALGO_OFFLINE, ALGO_ANYTIME), capacity_rates=(0.1, 0.3),
        monthly=True, epsilon=1e-3,
    ))
    assert len(calls) == 2 * 2 * ps.num_days
    calls.clear()
    without = run_experiment(ExperimentConfig(
        profiles=ps, algorithms=(ALGO_OFFLINE,), capacity_rates=(0.1, 0.3),
        monthly=True, epsilon=1e-3,
    ))
    assert len(calls) == 2 * 2 * ps.num_days
    assert with_anytime.monthly == without.monthly
    assert with_anytime.render_text().split("\nmonth,")[1] == (
        without.render_text().split("\nmonth,")[1]
    )


def test_experiment_rate_limit_fraction_feeds_instance():
    ps = synthetic_uniform_profiles(3, 3, 2.0, 4.0, seed=2)
    limited = run_experiment(ExperimentConfig(
        profiles=ps, algorithms=(ALGO_OFFLINE,), capacity_rates=(0.2,),
        rate_limit_fraction=0.05,
    ))
    free = run_experiment(ExperimentConfig(
        profiles=ps, algorithms=(ALGO_OFFLINE,), capacity_rates=(0.2,),
    ))
    assert (limited.cell(ALGO_OFFLINE, 0.2).metrics.mean_final_peak
            >= free.cell(ALGO_OFFLINE, 0.2).metrics.mean_final_peak - 1e-9)


def test_experiment_config_validation():
    ps = synthetic_uniform_profiles(2, 2, 1.0, 2.0, seed=1)
    with pytest.raises(UnknownAlgorithm):
        ExperimentConfig(profiles=ps, algorithms=("gradient-descent",))
    with pytest.raises(ValueError):
        ExperimentConfig(profiles=ps, algorithms=())
    with pytest.raises(ValueError):
        ExperimentConfig(profiles=ps, capacity_rates=())
    with pytest.raises(ValueError):
        ExperimentConfig(profiles=ps, epsilon=0.0)


def test_experiment_config_rejects_rhc_window_past_horizon():
    """A window longer than the days is refused at construction when the
    roster holds an rhc policy; run_experiment used to run every policy
    ahead of rhc-mid first and only then raise."""
    ps = synthetic_uniform_profiles(3, 8, 1.0, 2.0, seed=1)
    roster = (ALGO_FIXED, ALGO_ANYTIME, "rhc-mid")
    with pytest.raises(ValueError, match="window 9 exceeds horizon 8"):
        ExperimentConfig(profiles=ps, algorithms=roster, rhc_window=9)
    ExperimentConfig(profiles=ps, algorithms=roster, rhc_window=8)
    ExperimentConfig(profiles=ps, algorithms=(ALGO_FIXED,), rhc_window=9)


@pytest.mark.parametrize(
    "field, value",
    [("algorithms", "fixed"), ("algorithms", 7), ("monthly", "false"), ("monthly", 1),
     ("rhc_window", 2.5), ("rhc_window", True), ("rhc_window", "2"), ("epsilon", "1e-3"),
     ("capacity_rates", 0.1), ("capacity_rates", (0.1, "0.2")), ("rate_limit_fraction", "0.5"),
     ("algorithms", ("eql-dis", "eql-dis", "offline")), ("capacity_rates", (0.2, 0.1, 0.2))],
)
def test_experiment_config_rejects_wrong_types(field, value):
    """A wrong-typed or repeated value raises ValueError at construction.
    "fixed" was once split into the algorithms f, i, x, e and d, "false" ran
    monthly mode, a float or bool window failed inside numpy, a string
    epsilon or a bare rate raised TypeError, and a repeated policy or rate
    printed its cells again and ran its certified policies twice."""
    ps = synthetic_uniform_profiles(2, 2, 1.0, 2.0, seed=1)
    with pytest.raises(ValueError, match=f"{field} must be"):
        ExperimentConfig(profiles=ps, **{field: value})


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_experiment_config_rejects_non_finite_epsilon(bad):
    ps = synthetic_uniform_profiles(2, 2, 1.0, 2.0, seed=1)
    with pytest.raises(ValueError, match="epsilon"):
        ExperimentConfig(profiles=ps, epsilon=bad)


@pytest.mark.parametrize("rates", [(0.1, float("nan")), (float("inf"),)], ids=["nan", "inf"])
def test_experiment_config_rejects_non_finite_capacity_rates(rates):
    """A NaN rate used to slip past the min(...) <= 0 test and infinity
    past every test; both now fail at construction."""
    ps = synthetic_uniform_profiles(2, 2, 1.0, 2.0, seed=1)
    with pytest.raises(ValueError, match="capacity_rates"):
        ExperimentConfig(profiles=ps, capacity_rates=rates)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_experiment_config_rejects_non_finite_rate_limit_fraction(bad):
    ps = synthetic_uniform_profiles(2, 2, 1.0, 2.0, seed=1)
    with pytest.raises(ValueError, match="rate_limit_fraction"):
        ExperimentConfig(profiles=ps, rate_limit_fraction=bad)


def test_report_rendering_shapes():
    ps = synthetic_uniform_profiles(2, 2, 2.0, 4.0, seed=4)
    report = run_experiment(ExperimentConfig(
        profiles=ps, algorithms=(ALGO_OFFLINE, ALGO_FIXED), capacity_rates=(0.25,),
    ))
    text = report.render_text()
    assert "capacity_rate,algorithm,mean_final_peak" in text
    assert f"0.250000,{ALGO_OFFLINE}," in text
    series = report.series_lines()
    assert series[0] == "axis_value,series,mean,stddev"
    assert len(series) == 3
    rerun = run_experiment(ExperimentConfig(
        profiles=ps, algorithms=(ALGO_OFFLINE, ALGO_FIXED), capacity_rates=(0.25,),
    ))
    assert rerun.render_text() == text


def test_report_statistics_are_computed_once(monkeypatch):
    """run_experiment checks and aggregates every cell of its report in one
    pass over the stacked (cell x day) peaks; rendering the report's text
    and its series then calls neither np.mean nor np.std, and rendering them
    again gives the same text."""
    ps = synthetic_volatile_profiles(6, 4, 2.0, 6.0, seed=5)
    config = ExperimentConfig(
        profiles=ps, algorithms=(ALGO_OFFLINE, "thr-mid", "eql-dis"), capacity_rates=(0.1, 0.3),
    )
    passes = []
    real_pass = harness._checked_aggregates

    def counting_pass(finals, offline, original):
        passes.append(finals.shape)
        return real_pass(finals, offline, original)

    monkeypatch.setattr(harness, "_checked_aggregates", counting_pass)
    report = run_experiment(config)
    assert passes == [(len(report.cells), ps.num_days)]
    real_mean, real_std = np.mean, np.std
    calls = {"mean": 0, "std": 0}

    def counting_mean(*args, **kwargs):
        calls["mean"] += 1
        return real_mean(*args, **kwargs)

    def counting_std(*args, **kwargs):
        calls["std"] += 1
        return real_std(*args, **kwargs)

    monkeypatch.setattr(np, "mean", counting_mean)
    monkeypatch.setattr(np, "std", counting_std)
    text, series = report.render_text(), report.series_lines()
    assert (report.render_text(), report.series_lines()) == (text, series)
    assert calls == {"mean": 0, "std": 0}
    assert len(passes) == 1


@pytest.mark.parametrize("fraction", [None, 0.3], ids=["free", "rate-limited"])
def test_experiment_cells_match_per_day_runs_bit_for_bit(fraction):
    """Every baseline cell and the offline cell carry, day by day, exactly
    the final peaks of the per-day runs and offline solutions."""
    ps = synthetic_volatile_profiles(12, 8, 100.0, 400.0, seed=23)
    rates = (0.1, 0.3)
    report = run_experiment(ExperimentConfig(
        profiles=ps, capacity_rates=rates, rate_limit_fraction=fraction,
        algorithms=("offline", "thr-offline-mean", "thr-mid", "eql-dis", "eql-per",
                    "rhc-upper", "rhc-lower", "rhc-mid"),
    ))
    for rate in rates:
        instance = ps.instance(rate * ps.avg_daily_energy,
                               None if fraction is None else fraction * ps.demand_ub)
        profiles = [DemandProfile(instance, row) for row in ps.values()]
        offline = [solve_offline_pmd(instance, p).peak for p in profiles]
        runs = {
            "thr-offline-mean": lambda p: run_threshold(instance, p, float(np.mean(offline))),
            "thr-mid": lambda p: run_threshold(instance, p, 250.0),
            "eql-dis": lambda p: run_equal_discharge(instance, p),
            "eql-per": lambda p: run_equal_ratio(instance, p, rate),
            "rhc-upper": lambda p: run_rhc(instance, p, RhcConfig(None, FUTURE_UPPER)),
            "rhc-lower": lambda p: run_rhc(instance, p, RhcConfig(None, FUTURE_LOWER)),
            "rhc-mid": lambda p: run_rhc(instance, p, RhcConfig(None, FUTURE_MIDPOINT)),
        }
        assert report.cell("offline", rate).metrics.final_peaks.tolist() == offline
        for algo, run in runs.items():
            metrics = report.cell(algo, rate).metrics
            assert metrics.final_peaks.tolist() == [run(p).final_peak for p in profiles], algo
            assert metrics.offline_peaks.tolist() == offline


def _assert_matches_rate_loop(config):
    report = run_experiment(config)
    cells, monthly = run_experiment_loop(config)
    assert [(c.value, c.algorithm) for c in report.cells] == [c[:2] for c in cells]
    for cell, (_rate, algorithm, finals, offline) in zip(report.cells, cells):
        assert cell.metrics.final_peaks.tolist() == finals.tolist(), algorithm
        assert cell.metrics.offline_peaks.tolist() == offline.tolist(), algorithm
    assert report.monthly == tuple(monthly)


@pytest.mark.parametrize("fraction", [None, 0.3], ids=["free", "rate-limited"])
def test_stacked_sweep_matches_the_rate_loop_bit_for_bit(fraction):
    """Every cell of the full roster, baselines swept over all rates in one
    kernel call each, carries exactly the final and offline peaks of the
    per-rate, per-cell loop; thr-offline-mean's threshold differs per rate."""
    ps = synthetic_volatile_profiles(6, 6, 100.0, 400.0, seed=31)
    config = ExperimentConfig(profiles=ps, algorithms=ALL_ALGORITHMS,
                              capacity_rates=(0.05, 0.15, 0.3),
                              rate_limit_fraction=fraction, epsilon=1e-3)
    offline = [cell[3] for cell in run_experiment_loop(config)[0]
               if cell[1] == "thr-offline-mean"]
    assert len({float(np.mean(peaks)) for peaks in offline}) == 3
    _assert_matches_rate_loop(config)


def test_stacked_sweep_matches_the_rate_loop_monthly():
    ps = synthetic_volatile_profiles(5, 4, 2.0, 6.0, seed=5, start_date="2024-03-29")
    for roster in (("offline", "anytime", "rhc-mid", "eql-per"), ("thr-mid", "eql-dis")):
        _assert_matches_rate_loop(ExperimentConfig(
            profiles=ps, algorithms=roster, capacity_rates=(0.1, 0.3),
            monthly=True, epsilon=1e-3))


@pytest.mark.parametrize("window", [1, 8], ids=["window-1", "window-T"])
def test_stacked_sweep_matches_the_rate_loop_at_window_edges(window):
    ps = synthetic_volatile_profiles(10, 8, 100.0, 400.0, seed=7)
    _assert_matches_rate_loop(ExperimentConfig(
        profiles=ps, capacity_rates=(0.1, 0.2, 0.3), rhc_window=window,
        algorithms=("rhc-lower", "offline", "rhc-upper", "thr-offline-mean", "rhc-mid")))


def test_stacked_sweep_raises_what_the_rate_loop_raises_at_a_later_rate():
    """A rate past T * d_lb fails instance validation after the rates before
    it ran: the same exception and message as the per-rate loop."""
    ps = synthetic_volatile_profiles(4, 4, 100.0, 400.0, seed=2)
    config = ExperimentConfig(profiles=ps, algorithms=("offline", "fixed", "rhc-mid", "eql-dis"),
                              capacity_rates=(0.1, 0.2, 5.0), epsilon=1e-3)
    with pytest.raises(PeakMinError) as loop:
        run_experiment_loop(config)
    with pytest.raises(PeakMinError) as stacked:
        run_experiment(config)
    assert type(stacked.value) is type(loop.value) is CapacityExceedsMinDemand
    assert str(stacked.value) == str(loop.value)


def test_all_algorithms_execute():
    ps = synthetic_volatile_profiles(3, 4, 2.0, 6.0, seed=8)
    report = run_experiment(ExperimentConfig(
        profiles=ps, algorithms=ALL_ALGORITHMS, capacity_rates=(0.1,),
        epsilon=1e-3,
    ))
    assert len(report.cells) == len(ALL_ALGORITHMS)
    offline_mean = report.cell(ALGO_OFFLINE, 0.1).metrics.mean_final_peak
    for cell in report.cells:
        assert cell.metrics.mean_final_peak >= offline_mean - 1e-9


@pytest.mark.parametrize("ub", [float("inf"), float("nan")], ids=["inf", "nan"])
def test_demand_bounds_reject_non_finite(ub):
    """An infinite or NaN demand ceiling is rejected where it is given, by
    the SlottingConfig a day set or synthetic generator builds (the
    generators used to raise numpy's OverflowError on inf), not later by
    instance()."""
    with pytest.raises(ValueError, match="demand_bounds"):
        SlottingConfig(demand_bounds=(1.0, ub))
    with pytest.raises(ValueError, match="lb <= ub < inf"):
        _profile_set(day_keys=("2024-05-06",), day_values=((1.0, 2.0),), slot_minutes=15,
                     on_peak_start="12:00", on_peak_end="12:30", demand_lb=1.0, demand_ub=ub)
    for generate in (synthetic_uniform_profiles, synthetic_volatile_profiles):
        with pytest.raises(ValueError, match="lb <= ub < inf"):
            generate(2, 4, 1.0, ub, seed=1)


def test_profile_set_json_rejects_infinite_bound():
    """A profile set whose JSON carries "demand_ub": Infinity (which Python's
    json reads) is rejected on load."""
    good = json.loads(profile_set_to_json(synthetic_uniform_profiles(1, 2, 1.0, 2.0, seed=1)))
    with pytest.raises((ValueError, MalformedRecord)):
        profile_set_from_json(json.dumps({**good, "demand_ub": float("inf")}))
