"""Command-line interface: golden outputs, error surfacing, and round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import peakmin.cli as cli
from peakmin.cli import main, read_demand_file
from peakmin.core import DemandProfile, Instance
from peakmin.errors import MalformedRecord
from peakmin.harness import save_profile_set, synthetic_uniform_profiles
from peakmin.online import run_pcr_pmd

from conftest import DHAT

CR_FLAGS = ["-c", "630", "-T", "10", "--d-lb", "300", "--d-ub", "600"]


@pytest.fixture()
def dhat_file(tmp_path):
    path = tmp_path / "demands.txt"
    path.write_text("# fixture\n" + "".join(f"{x}\n" for x in DHAT), encoding="utf-8")
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cr_golden(capsys):
    code, out, err = run_cli(capsys, ["cr", *CR_FLAGS])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "pi_star,1.320290"
    assert lines[1] == "tau,1"
    assert lines[2] == "argmax_set,1 2 3 4 5 6 7 8 9"
    assert lines[3] == (
        "witness,379.500000 411.000000 411.000000 442.500000 442.500000 "
        "600.000000 600.000000 600.000000 600.000000 300.000000"
    )


def test_cr_byte_identical_reruns(capsys):
    _, first, _ = run_cli(capsys, ["cr", *CR_FLAGS])
    _, second, _ = run_cli(capsys, ["cr", *CR_FLAGS])
    assert first == second


def test_solve_golden(capsys, dhat_file):
    code, out, _ = run_cli(capsys, [
        "solve", "-c", "630", "--d-lb", "300", "--d-ub", "600",
        "--demands", dhat_file,
    ])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "slot,demand,discharge,net"
    assert lines[1] == "1,379.500000,0.000000,379.500000"
    assert lines[6] == "6,600.000000,126.000000,474.000000"
    assert lines[-2] == "threshold_v,474.000000"
    assert lines[-1] == "peak,474.000000"


def test_solve_horizon_crosscheck(capsys, dhat_file):
    code, _, err = run_cli(capsys, [
        "solve", "-c", "630", "-T", "9", "--d-lb", "300", "--d-ub", "600",
        "--demands", dhat_file,
    ])
    assert code == 2
    assert "MalformedRecord" in err


def test_simulate_fixed_golden(capsys, dhat_file):
    code, out, _ = run_cli(capsys, [
        "simulate", "-c", "630", "--d-lb", "300", "--d-ub", "600",
        "--demands", dhat_file, "--algo", "fixed", "--pi", "auto",
    ])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "slot,demand,discharge,net,ratio"
    expected = [56.10, 72.94, 58.28, 70.97, 52.16, 147.47, 98.95, 57.36, 15.77, 0.0]
    for t, want in enumerate(expected, start=1):
        cells = lines[t].split(",")
        assert cells[0] == str(t)
        assert float(cells[2]) == pytest.approx(want, abs=0.5)
        assert cells[4] == "1.320290"
    assert "final_peak,600.000000" in lines
    assert "offline_peak,474.000000" in lines
    assert "inventory_spent,630.000000" in lines


def test_simulate_fixed_at_a_given_pi(capsys, dhat_file):
    """--pi 1.3 runs the fixed policy at pi = 1.3, as run_pcr_pmd does."""
    code, out, _ = run_cli(capsys, [
        "simulate", "-c", "630", "--d-lb", "300", "--d-ub", "600",
        "--demands", dhat_file, "--algo", "fixed", "--pi", "1.3",
    ])
    assert code == 0
    instance = Instance(630.0, None, len(DHAT), 300.0, 600.0)
    run = run_pcr_pmd(instance, 1.3, DemandProfile(instance, DHAT))
    lines = out.splitlines()
    for t, delta in enumerate(run.schedule.values, start=1):
        assert lines[t].split(",")[2::2] == [cli._f(delta), "1.300000"]
    assert f"final_peak,{cli._f(run.final_peak)}" in lines
    assert f"inventory_spent,{cli._f(run.inventory_spent)}" in lines


def test_simulate_baseline_has_no_ratio_column(capsys, dhat_file):
    code, out, _ = run_cli(capsys, [
        "simulate", "-c", "630", "--d-lb", "300", "--d-ub", "600",
        "--demands", dhat_file, "--algo", "eql-dis",
    ])
    assert code == 0
    first_row = out.splitlines()[1].split(",")
    assert first_row[4] == "-"
    assert float(first_row[2]) == pytest.approx(63.0)


def test_simulate_anytime_runs(capsys, dhat_file):
    code, out, _ = run_cli(capsys, [
        "simulate", "-c", "630", "--d-lb", "300", "--d-ub", "600",
        "--demands", dhat_file, "--algo", "anytime", "--epsilon", "1e-3",
    ])
    assert code == 0
    lines = out.splitlines()
    ratios = [float(line.split(",")[4]) for line in lines[1:11]]
    assert all(a >= b - 1e-9 for a, b in zip(ratios, ratios[1:]))
    final = float(next(l for l in lines if l.startswith("final_peak,")).split(",")[1])
    assert final <= (ratios[-1] + 1e-3) * 474.0 + 1e-6


@pytest.mark.parametrize("algo", ["anytime", "anytime-deplete"])
def test_simulate_anytime_on_the_cr_witness(capsys, tmp_path, algo):
    """The witness `peakmin cr` prints (3 3 6 6 6 at c = 10.5, T = 5, bounds
    [3, 6]) runs through the anytime policies at --pi auto: it used to exit
    2 with "ratio_trajectory must be nonincreasing", the standing peak
    tying the ratio at a slot whose requirement rounding put above the
    inventory. Every slot keeps pi* and the peak is pi* times the offline
    peak."""
    flags = ["-c", "10.5", "--d-lb", "3", "--d-ub", "6"]
    code, out, _ = run_cli(capsys, ["cr", *flags, "-T", "5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "pi_star,1.666667"
    witness = lines[3].split(",")[1].split()
    assert witness == ["3.000000", "3.000000", "6.000000", "6.000000", "6.000000"]
    path = tmp_path / "witness.txt"
    path.write_text("\n".join(witness) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, ["simulate", *flags, "--demands", str(path),
                                      "--algo", algo, "--pi", "auto"])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert [line.split(",")[4] for line in lines[1:6]] == ["1.666667"] * 5
    assert lines[6:8] == ["final_peak,4.500000", "offline_peak,2.700000"]


@pytest.mark.parametrize("day,offline", [("1\n2\n", 1.0), ("1.5\n2\n", 1.25)])
def test_simulate_anytime_checks_a_seed_below_pi_star(capsys, tmp_path, day, offline):
    """--pi 1.2 seeds the anytime policy below pi* = 4/3 on the instance
    c = 1, T = 2, bounds [1, 2]. It used to print ratio 1.200000 at both
    slots over a final peak of 1.4 (offline 1.0) or 1.6 (offline 1.25);
    every printed ratio now bounds the peak."""
    path = tmp_path / "day.txt"
    path.write_text(day, encoding="utf-8")
    code, out, err = run_cli(capsys, ["simulate", "-c", "1", "--d-lb", "1", "--d-ub", "2",
                                      "--demands", str(path), "--algo", "anytime",
                                      "--pi", "1.2"])
    assert code == 0 and err == ""
    lines = out.splitlines()
    ratios = [float(line.split(",")[4]) for line in lines[1:3]]
    assert ratios[0] > 1.2 and ratios[0] >= ratios[1]
    assert lines[4] == f"offline_peak,{offline:.6f}"
    final = float(lines[3].removeprefix("final_peak,"))
    assert final <= ratios[1] * offline + 1e-6


def test_simulate_flag_requirements(capsys, dhat_file):
    base = ["simulate", "-c", "630", "--d-lb", "300", "--d-ub", "600",
            "--demands", dhat_file]
    code, _, err = run_cli(capsys, [*base, "--algo", "thr"])
    assert code == 2 and "MalformedRecord" in err and "--threshold" in err
    code, _, err = run_cli(capsys, [*base, "--algo", "eql-per"])
    assert code == 2 and "MalformedRecord" in err and "--ratio" in err
    code, _, err = run_cli(capsys, [*base, "--algo", "fixed", "--pi", "fast"])
    assert code == 2 and "MalformedRecord" in err


def test_simulate_checks_pi_and_epsilon_for_every_algo(capsys, dhat_file):
    base = ["simulate", "-c", "630", "--d-lb", "300", "--d-ub", "600",
            "--demands", dhat_file, "--threshold", "450", "--ratio", "0.2"]
    for algo in ("fixed", "anytime", "thr", "eql-dis", "eql-per", "rhc-mid"):
        for flags in (["--pi", "garbage"], ["--pi", "0.5"], ["--pi", "nan"],
                      ["--epsilon", "-5"], ["--epsilon", "0"], ["--epsilon", "nan"]):
            code, out, err = run_cli(capsys, [*base, "--algo", algo, *flags])
            assert code == 2 and out == "", (algo, flags)
            assert err.startswith("MalformedRecord") and flags[0] in err, (algo, flags)


@pytest.mark.parametrize("algo", ["fixed", "anytime", "anytime-deplete"])
def test_simulate_rejects_infinite_pi(capsys, dhat_file, algo):
    """--pi inf used to end anytime runs in a misleading simplex iteration
    cap failure, and to print a never-discharging fixed run; it is now a
    malformed flag for every ratio policy."""
    base = ["simulate", "-c", "630", "--d-lb", "300", "--d-ub", "600",
            "--demands", dhat_file]
    code, out, err = run_cli(capsys, [*base, "--algo", algo, "--pi", "inf"])
    assert code == 2 and out == ""
    assert err.startswith("MalformedRecord") and "--pi" in err and "finite" in err


@pytest.mark.parametrize(
    "flags, field",
    [
        (["-c", "nan", "--d-lb", "300", "--d-ub", "600"], "capacity_c"),
        (["-c", "630", "--d-lb", "nan", "--d-ub", "600"], "demand_lb"),
        (["-c", "630", "--d-lb", "300", "--d-ub", "inf"], "demand_ub"),
        (["-c", "630", "--d-lb", "300", "--d-ub", "600", "--rate-limit", "nan"], "rate_limit"),
    ],
    ids=["capacity-nan", "d-lb-nan", "d-ub-inf", "rate-limit-nan"],
)
def test_cr_rejects_non_finite_instance_flags(capsys, flags, field):
    code, out, err = run_cli(capsys, ["cr", "-T", "10", *flags])
    assert code == 2 and out == ""
    assert err.startswith("NonPositiveBound") and field in err


def test_simulate_thr_rejects_nan_threshold(capsys, dhat_file):
    code, out, err = run_cli(capsys, [
        "simulate", "-c", "630", "--d-lb", "300", "--d-ub", "600",
        "--demands", dhat_file, "--algo", "thr", "--threshold", "nan",
    ])
    assert code == 2 and out == ""
    assert err.startswith("ValueError") and "threshold" in err


@pytest.mark.parametrize("flags, message", [
    (["--algo", "thr", "--threshold", "-1"], "threshold must be >= 0, got -1.0"),
    (["--algo", "eql-per", "--ratio", "1.5"], "capacity_rate must be within [0, 1], got 1.5"),
    (["--algo", "rhc-mid", "--window", "0"], "window must be an integer >= 1, got 0"),
    (["--algo", "rhc-mid", "--window", "9"], "window 9 exceeds horizon 4"),
], ids=["negative-threshold", "ratio-above-1", "window-0", "window-past-horizon"])
def test_simulate_surfaces_the_runners_rejections(capsys, tmp_path, flags, message):
    """A policy argument the runner rejects exits 2 with the runner's
    message, and prints no row."""
    demands = tmp_path / "demands.txt"
    demands.write_text("300\n450\n600\n350\n", encoding="utf-8")
    code, out, err = run_cli(capsys, ["simulate", "-c", "100", "--d-lb", "300", "--d-ub", "600",
                                      "--demands", str(demands), *flags])
    assert (code, out, err) == (2, "", f"ValueError: {message}\n")


def test_domain_errors_surface_verbatim(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["cr", "-c", "3000", "-T", "10",
                                    "--d-lb", "300", "--d-ub", "600"])
    assert code == 2
    assert err.startswith("DegenerateInstance")
    code, _, err = run_cli(capsys, ["cr", "-c", "4000", "-T", "10",
                                    "--d-lb", "300", "--d-ub", "600"])
    assert code == 2
    assert err.startswith("CapacityExceedsMinDemand")
    bad = tmp_path / "bad.txt"
    bad.write_text("12\nnot-a-number\n", encoding="utf-8")
    code, _, err = run_cli(capsys, ["solve", "-c", "3", "--d-lb", "1",
                                    "--d-ub", "20", "--demands", str(bad)])
    assert code == 2
    assert err.startswith("MalformedRecord") and "line 2" in err
    code, _, err = run_cli(capsys, ["solve", "-c", "3", "--d-lb", "1",
                                    "--d-ub", "20", "--demands", str(tmp_path / "nope.txt")])
    assert code == 2


def test_solve_rejects_nan_demand(capsys, tmp_path):
    path = tmp_path / "nan.txt"
    path.write_text("12\nnan\n", encoding="utf-8")
    code, out, err = run_cli(capsys, ["solve", "-c", "1", "--d-lb", "1",
                                      "--d-ub", "20", "--demands", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("DemandOutOfBounds")


def test_read_demand_file_rules(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("# header\n2.5\n 3.0 # inline\n\n4\n", encoding="utf-8")
    assert list(read_demand_file(path)) == [2.5, 3.0, 4.0]
    empty = tmp_path / "e.txt"
    empty.write_text("# only comments\n", encoding="utf-8")
    with pytest.raises(MalformedRecord):
        read_demand_file(empty)


@pytest.mark.parametrize("number", ["1_000", "\u0661\u0662", "\uff11\uff12"],
                         ids=["underscore", "arabic-indic", "full-width"])
def test_number_fields_take_ascii_decimals_only(capsys, tmp_path, number):
    """float() reads PEP 515 underscores and other scripts' digits, so a
    demand line or trace field like these loaded as 1000 or 12; each is now
    rejected with its line number, and solve, simulate and ingest exit 2.
    So does each numeric flag written so (`cr -c 1_00 -T 4 --d-lb 3_00` and
    `-T \u0664` ran)."""
    flags = {"cr": ["-c", "-T", "--d-lb", "--d-ub", "--rate-limit"],
             "simulate": ["--epsilon", "--threshold", "--ratio", "--window"],
             "ingest": ["--slot-minutes", "--scale", "--d-lb", "--d-ub"]}
    base = {"cr": ["cr", "-c", "100", "-T", "4", "--d-lb", "300", "--d-ub", "600"],
            "simulate": ["simulate", "-c", "100", "--d-lb", "300", "--d-ub", "600",
                         "--demands", "d.txt", "--algo", "eql-dis"],
            "ingest": ["ingest", "--input", "t.csv", "--output", "o.json"]}
    for command, names in flags.items():
        for flag in names:
            with pytest.raises(SystemExit) as exc:
                main([*base[command], flag, number])
            assert exc.value.code == 2, (command, flag)
            assert f"argument {flag}" in capsys.readouterr().err
    demands = tmp_path / "demands.txt"
    demands.write_text(f"300\n{number}\n", encoding="utf-8")
    with pytest.raises(MalformedRecord, match=f"line 2: not a number: {number!r}"):
        read_demand_file(demands)
    instance = ["-c", "100", "--d-lb", "1", "--d-ub", "2000", "--demands", str(demands)]
    for argv in (["solve", *instance], ["simulate", *instance, "--algo", "eql-dis"]):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "") and err.startswith("MalformedRecord: line 2: "), argv
    trace = tmp_path / "trace.csv"
    trace.write_text("start_iso8601,duration_min,energy_kwh\n2024-05-06 12:00,60,6.0\n"
                     f"2024-05-06 12:30,{number},6.0\n", encoding="utf-8")
    out_path = tmp_path / "days.json"
    code, out, err = run_cli(capsys, ["ingest", "--input", str(trace), "--output", str(out_path)])
    assert (code, out) == (2, "") and err.startswith("MalformedRecord: line 3: "), err
    assert not out_path.exists()


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_ingest_experiment_roundtrip(capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    rows = ["start_iso8601,duration_min,energy_kwh"]
    for day in range(6, 10):
        for hour, energy in ((12, 6.0), (13, 7.5)):
            rows.append(f"2024-05-{day:02d} {hour}:00,60,{energy + 0.25 * day}")
    trace.write_text("\n".join(rows) + "\n", encoding="utf-8")

    profiles_path = tmp_path / "days.json"
    code, out, _ = run_cli(capsys, [
        "ingest", "--input", str(trace), "--output", str(profiles_path),
        "--slot-minutes", "30", "--window-start", "12:00", "--window-end", "14:00",
    ])
    assert code == 0
    assert "4 days x 4 slots" in out
    payload = json.loads(profiles_path.read_text(encoding="utf-8"))
    assert payload["day_keys"] == [f"2024-05-{d:02d}" for d in range(6, 10)]

    config_path = tmp_path / "exp.json"
    config_path.write_text(json.dumps({
        "profiles": "days.json",
        "algorithms": ["offline", "anytime", "eql-dis"],
        "capacity_rates": [0.1],
        "epsilon": 1e-3,
    }), encoding="utf-8")
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, [
        "experiment", "--config", str(config_path), "--output-dir", str(out_dir),
    ])
    assert code == 0
    report = (out_dir / "report.txt").read_text(encoding="utf-8")
    assert "0.100000,offline," in report
    assert "0.100000,anytime," in report
    series = (out_dir / "series.csv").read_text(encoding="utf-8").splitlines()
    assert series[0] == "axis_value,series,mean,stddev"
    assert len(series) == 4

    # a day's slotted values replayed through simulate give the same offline peak
    day_file = tmp_path / "day0.txt"
    day_file.write_text("".join(f"{x}\n" for x in payload["day_values"][0]),
                        encoding="utf-8")
    lb, ub = payload["demand_lb"], payload["demand_ub"]
    capacity = 0.4 * min(payload["day_values"][0])
    code, out, _ = run_cli(capsys, [
        "simulate", "-c", f"{capacity}", "--d-lb", f"{lb}", "--d-ub", f"{ub}",
        "--demands", str(day_file), "--algo", "rhc-mid", "--window", "2",
    ])
    assert code == 0


def test_experiment_config_errors(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    missing.write_text("{}", encoding="utf-8")
    code, _, err = run_cli(capsys, [
        "experiment", "--config", str(missing), "--output-dir", str(tmp_path / "o"),
    ])
    assert code == 2 and "profiles" in err
    invalid = tmp_path / "invalid.json"
    invalid.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, [
        "experiment", "--config", str(invalid), "--output-dir", str(tmp_path / "o"),
    ])
    assert code == 2 and err.startswith("MalformedRecord")
    # a wrong-typed value or an unknown key names the key and exits 2; each
    # wrong type below once ended in a TypeError traceback, "monthly":
    # "false" turned monthly mode on, and "algorithms": "fixed" was split
    # into the algorithms f, i, x, e and d; a repeated policy or rate printed
    # its cells twice
    for key, value in [("profiles", 5), ("epsilon", [1]), ("capacity_rates", 0.1),
                       ("algorithms", 7), ("rate_limit_fraction", "0.5"), ("rhc_window", "x"),
                       ("rhc_window", 2.5), ("monthly", "false"), ("algorithms", "fixed"),
                       ("capacity_rates", [0.1, "0.2"]), ("rhc_window", True),
                       ("epsilom", 1e-3), ("algorithms", ["eql-dis", "eql-dis", "offline"]),
                       ("capacity_rates", [0.1, 0.1])]:
        config = tmp_path / "typed.json"
        config.write_text(json.dumps({"profiles": "days.json", key: value}), encoding="utf-8")
        code, _, err = run_cli(capsys, [
            "experiment", "--config", str(config), "--output-dir", str(tmp_path / "o"),
        ])
        assert code == 2 and err.startswith("MalformedRecord") and repr(key) in err, (key, err)


def test_experiment_rejects_rhc_window_past_horizon(capsys, monkeypatch, tmp_path):
    """An rhc_window longer than the days exits 2 before the experiment
    starts (it used to run fixed and anytime first), and writes no output."""

    def no_run(config):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    save_profile_set(synthetic_uniform_profiles(3, 8, 1.0, 2.0, seed=1), tmp_path / "days.json")
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({
        "profiles": "days.json", "algorithms": ["fixed", "anytime", "rhc-mid"],
        "capacity_rates": [0.1], "rhc_window": 9,
    }), encoding="utf-8")
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, [
        "experiment", "--config", str(config), "--output-dir", str(out_dir),
    ])
    assert code == 2 and out == ""
    assert err == "ValueError: window 9 exceeds horizon 8\n"
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "row", ["2024-05-06T12:00:00+02:00,60,6.0", "2024-05-06 12:00,1e13,6.0"],
    ids=["utc-offset", "end-overflows"],
)
def test_ingest_rejects_unslottable_transaction(capsys, tmp_path, row):
    """A start with a UTC offset, or a session ending past year 9999, used
    to end peakmin ingest in a TypeError or OverflowError traceback; it now
    exits 2, names the line and writes nothing."""
    trace = tmp_path / "trace.csv"
    trace.write_text(f"start_iso8601,duration_min,energy_kwh\n{row}\n", encoding="utf-8")
    out_path = tmp_path / "days.json"
    code, _out, err = run_cli(capsys, [
        "ingest", "--input", str(trace), "--output", str(out_path),
    ])
    assert code == 2
    assert err.startswith("MalformedRecord") and "line 2" in err
    assert not out_path.exists()


def test_ingest_reads_a_byte_order_mark(capsys, tmp_path):
    """A trace saved as Excel's "CSV UTF-8" starts with a byte-order mark;
    peakmin ingest used to exit 2 on it with "expected header"."""
    rows = "".join(f"2024-05-06 {hour}:00,60,{energy}\n" for hour, energy in ((12, 6.0), (13, 7.5)))
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text("start_iso8601,duration_min,energy_kwh\n" + rows, encoding="utf-8")
    marked.write_text("\ufeffstart_iso8601,duration_min,energy_kwh\n" + rows, encoding="utf-8")
    for trace in (plain, marked):
        code, _out, err = run_cli(capsys, [
            "ingest", "--input", str(trace), "--output", str(tmp_path / f"{trace.stem}.json"),
            "--slot-minutes", "30", "--window-start", "12:00", "--window-end", "14:00",
        ])
        assert code == 0, err
    assert (tmp_path / "marked.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


def test_ingest_takes_both_demand_bounds_or_neither(capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text("start_iso8601,duration_min,energy_kwh\n2024-05-06 12:00,60,6.0\n",
                     encoding="utf-8")
    out_path = tmp_path / "days.json"
    code, _out, err = run_cli(capsys, [
        "ingest", "--input", str(trace), "--output", str(out_path), "--d-lb", "1",
    ])
    assert code == 2
    assert err.startswith("MalformedRecord") and "--d-ub" in err
    assert not out_path.exists()


@pytest.mark.parametrize("d_ub", ["inf", "nan"])
def test_ingest_rejects_non_finite_demand_bound(capsys, tmp_path, d_ub):
    """peakmin ingest --d-ub inf used to exit 0 and write "demand_ub":
    Infinity, which is not JSON; it now exits 2 and writes nothing."""
    trace = tmp_path / "trace.csv"
    trace.write_text("start_iso8601,duration_min,energy_kwh\n2024-05-06 12:00,60,6.0\n",
                     encoding="utf-8")
    out_path = tmp_path / "days.json"
    code, _out, err = run_cli(capsys, [
        "ingest", "--input", str(trace), "--output", str(out_path),
        "--slot-minutes", "30", "--window-start", "12:00", "--window-end", "14:00",
        "--d-lb", "1", "--d-ub", d_ub,
    ])
    assert code == 2
    assert "demand_bounds" in err
    assert not out_path.exists()


# runs each argv list given as JSON through peakmin.cli.main in this one
# process and prints [exit code, stdout, stderr] per call
_IN_ONE_PROCESS = """
import contextlib, io, json, sys
from peakmin.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def _cli_processes(calls, cwd) -> list:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, "-c", _IN_ONE_PROCESS, json.dumps(calls)],
                          cwd=cwd, env=env, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout)


def test_one_process_runs_each_command_as_a_fresh_process_does(tmp_path, dhat_file):
    """The parser is built once per process: ingest, experiment, simulate and
    two failing cr calls (a domain error and a usage error) in one process
    print and exit exactly as each does in a process of its own."""
    trace = tmp_path / "trace.csv"
    rows = ["start_iso8601,duration_min,energy_kwh"]
    for day in range(6, 10):
        for hour, energy in ((12, 6.0), (13, 7.5)):
            rows.append(f"2024-05-{day:02d} {hour}:00,60,{energy + 0.25 * day}")
    trace.write_text("\n".join(rows) + "\n", encoding="utf-8")
    (tmp_path / "exp.json").write_text(json.dumps({
        "profiles": "days.json", "algorithms": ["offline", "anytime", "eql-dis", "rhc-mid"],
        "capacity_rates": [0.1, 0.2], "epsilon": 1e-3}), encoding="utf-8")
    calls = [
        ["ingest", "--input", "trace.csv", "--output", "days.json", "--slot-minutes", "30",
         "--window-start", "12:00", "--window-end", "14:00"],
        ["experiment", "--config", "exp.json", "--output-dir", "out"],
        ["simulate", "-c", "630", "--d-lb", "300", "--d-ub", "600", "--demands", dhat_file,
         "--algo", "anytime", "--epsilon", "1e-3"],
        ["cr", "-c", "5000", "-T", "10", "--d-lb", "300", "--d-ub", "600"],
        ["cr", "-T", "10", "--d-lb", "300", "--d-ub", "600"],
    ]
    together = _cli_processes(calls, tmp_path)
    alone = [_cli_processes([argv], tmp_path)[0] for argv in calls]
    assert together == alone
    assert [code for code, _, _ in together] == [0, 0, 0, 2, 2]
    assert together[3][2].startswith("CapacityExceedsMinDemand")
    assert "usage: peakmin cr" in together[4][2]
