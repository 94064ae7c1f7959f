"""Byte-for-byte CLI goldens: simulate for every --algo on the DHAT day, the
report and series files of an experiment over every algorithm, cr on a
plain, a rate-limited and a rate-capped instance, and ingest of a small
trace whose sessions include one that crosses midnight.

The expected files live in tests/golden/. They pin the printed output of
the command line, so a refactor behind it must leave every byte alone.
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from peakmin.cli import build_parser, main
from peakmin.harness import ALL_ALGORITHMS, save_profile_set, synthetic_uniform_profiles

from conftest import DHAT

GOLDEN = Path(__file__).parent / "golden"
REPO = Path(__file__).resolve().parent.parent

SIM_ALGOS = (
    "fixed",
    "anytime",
    "anytime-deplete",
    "thr",
    "eql-dis",
    "eql-per",
    "rhc-upper",
    "rhc-lower",
    "rhc-mid",
)

# (golden name, rate_limit_fraction); both sets span a month boundary so the
# monthly table has two rows per capacity rate
EXPERIMENTS = (("plain", None), ("rate_limited", 0.25))

# (golden name, cr flags): the README instance, a rate limit that binds, and
# c > T * rate, where no scenario program is feasible and no witness exists
CR_CASES = (
    ("readme", ["-c", "630", "-T", "10", "--d-lb", "300", "--d-ub", "600"]),
    ("rate_limited", ["-c", "630", "-T", "10", "--rate-limit", "150",
                      "--d-lb", "300", "--d-ub", "600"]),
    ("rate_capped", ["-c", "630", "-T", "6", "--rate-limit", "100",
                     "--d-lb", "300", "--d-ub", "600"]),
)


def _golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def test_simulate_algo_choices_in_order():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    algo = next(a for a in sub.choices["simulate"]._actions if a.dest == "algo")
    assert tuple(algo.choices) == SIM_ALGOS
    assert ALL_ALGORITHMS == (
        "offline", "fixed", "anytime", "anytime-deplete", "thr-offline-mean",
        "thr-mid", "eql-dis", "eql-per", "rhc-upper", "rhc-lower", "rhc-mid",
    )


@pytest.mark.parametrize("algo", SIM_ALGOS)
def test_simulate_golden(capsys, tmp_path, algo):
    demands = tmp_path / "demands.txt"
    demands.write_text("".join(f"{x}\n" for x in DHAT), encoding="utf-8")
    code = main([
        "simulate", "-c", "630", "--d-lb", "300", "--d-ub", "600",
        "--demands", str(demands), "--algo", algo,
        "--threshold", "450", "--ratio", "0.2", "--window", "3",
    ])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out == _golden(f"simulate_{algo}.txt")


@pytest.mark.parametrize("name, rate_limit_fraction", EXPERIMENTS)
def test_experiment_golden(capsys, tmp_path, name, rate_limit_fraction):
    profiles = synthetic_uniform_profiles(
        4, 4, 10.0, 20.0, seed=5, start_date="2024-03-30"
    )
    save_profile_set(profiles, tmp_path / "days.json")
    config = {
        "profiles": "days.json",
        "algorithms": list(ALL_ALGORITHMS),
        "capacity_rates": [0.1, 0.3],
        "monthly": True,
        "epsilon": 1e-3,
        "rhc_window": 2,
    }
    if rate_limit_fraction is not None:
        config["rate_limit_fraction"] = rate_limit_fraction
    (tmp_path / "exp.json").write_text(json.dumps(config), encoding="utf-8")
    out_dir = tmp_path / "out"
    code = main([
        "experiment", "--config", str(tmp_path / "exp.json"),
        "--output-dir", str(out_dir),
    ])
    capsys.readouterr()
    assert code == 0
    report = (out_dir / "report.txt").read_text(encoding="utf-8")
    series = (out_dir / "series.csv").read_text(encoding="utf-8")
    assert report == _golden(f"experiment_{name}_report.txt")
    assert series == _golden(f"experiment_{name}_series.csv")


def test_ingest_golden(capsys, tmp_path, monkeypatch):
    """ingest_trace.csv holds five days; one session starts at 23:30 and
    covers the next day's window, and the last day is dropped uncovered."""
    monkeypatch.chdir(tmp_path)
    code = main(["ingest", "--input", str(GOLDEN / "ingest_trace.csv"),
                 "--output", "days.json", "--window-end", "13:00"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out == _golden("ingest_stdout.txt")
    assert (tmp_path / "days.json").read_text(encoding="utf-8") == _golden("ingest_days.json")


@pytest.mark.parametrize("name, flags", CR_CASES, ids=[c[0] for c in CR_CASES])
def test_cr_golden(capsys, name, flags):
    code = main(["cr", *flags])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out == _golden(f"cr_{name}.txt")


def test_benchmark_tracer_names_exist():
    """Every function the benchmark's tracer wraps is still a module attribute."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracing.check_wrapped_names()


def test_package_never_imports_scipy():
    """Importing scipy.optimize roughly triples the resident memory of a
    run, so HiGHS stays a test and benchmark oracle: optimal_cr and
    run_anytime on a T=4 instance leave scipy unimported."""
    script = (
        "import sys\n"
        "from peakmin import DemandProfile, Instance, optimal_cr, run_anytime\n"
        "inst = Instance(2.0, None, 4, 1.0, 3.0)\n"
        "optimal_cr(inst)\n"
        "run_anytime(inst, DemandProfile(inst, [2.5, 1.5, 3.0, 2.0]))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
