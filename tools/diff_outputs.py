"""Byte-for-byte comparison of CLI outputs between a parent commit and the working tree.

    python3 tools/diff_outputs.py --parent HEAD~1 --seeds 1001 9001

Exports the committed files of the parent with bench_pairs.export_commit
into a temporary directory. For each seed it writes the traces the
sweep_trace workload generates for that seed (perfbench/inputs.py's
charging_trace_csv, 30-day chunks, the first --chunks of them) and one
3-day trace across a month end, with its VARIANTS: the same rows with CRLF
line ends or after a byte-order mark (which reading the file takes away),
with comments and blank lines (which the parse drops), and with
space-separated starts (which the parse reads as T-separated ones). Both
trees then run `peakmin ingest` (the chunks
at the default 12:00-17:00 window, T=20; the short trace and its variants at
12:00-14:00, T=8, so that the certified policies run in seconds) and
`peakmin experiment` on these configs:

  sweep         the baseline roster at every capacity rate that validates
  rate-limited  the same roster with rate_limit_fraction 0.3
  long-window   the rate-limited roster with rhc_window 9, whose windows
                sum their slot caps pairwise (numpy sums 8 or more entries
                of a row pairwise)
  certified     fixed, anytime and anytime-deplete (short trace, rate 0.1)
  monthly       anytime with monthly threading (short trace, rate 0.1)

On the first day of each short trace, at rate 0.1, they also run `peakmin
simulate` with every --algo (thr at the demand midpoint, eql-per at ratio
0.1) and `peakmin cr`, and then `peakmin cr` and simulate with fixed,
anytime and anytime-deplete again with --rate-limit at half the demand
ceiling, so that rate-limited LP answers are compared too. Both trees
also run a fixed list of commands that must fail (ERROR_CALLS: a demand
above --d-ub, --pi 0.5, --epsilon 0, a solve whose --horizon disagrees
with its file, cr with c at and above T * d_lb, an experiment config with
an unknown key, a day-set JSON with a day above its demand_ub, and the
ingest of a trace with a bad start, or a "1_000" length, in the middle of
canonical rows), on small inputs written beside them. A tree runs its commands in two fresh processes, one for the
ingests and one for the rest, each command as cli.main(argv); one process
prints and exits as a process per command does (test_cli pins it).

The ingest JSON, report.txt and series.csv of every run, each command's
stdout, stderr and exit code must be the same on both sides. The working
tree also runs every experiment config on the parent's ingest JSON (the
cross-load), whose report.txt and series.csv must equal the parent's, so
that a day-set file the parent wrote reads back the same. Every
difference is printed, and the exit status is 1 if there is any, 0
otherwise.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CHUNK_DAYS = 30  # sweep_trace's chunk length
CLI_TIMEOUT_S = 1800  # a process of CLI calls still going after this is taken as hung
SHORT_START = "2024-01-30"  # the 3-day trace spans two months
WINDOWS = {"chunk": [], "short": ["--window-end", "14:00"], "variant": ["--window-end", "14:00"]}
BASELINES = ["offline", "thr-offline-mean", "thr-mid", "eql-dis", "eql-per",
             "rhc-upper", "rhc-lower", "rhc-mid"]
CONFIGS = {
    "sweep": ("chunk", {"algorithms": BASELINES}),
    "rate-limited": ("chunk", {"algorithms": BASELINES, "rate_limit_fraction": 0.3}),
    "long-window": ("chunk", {"algorithms": BASELINES, "rate_limit_fraction": 0.3,
                              "rhc_window": 9}),
    "certified": ("short", {"algorithms": ["fixed", "anytime", "anytime-deplete"],
                            "capacity_rates": [0.1], "epsilon": 1e-3}),
    "monthly": ("short", {"algorithms": ["offline", "anytime"], "capacity_rates": [0.1],
                          "monthly": True, "epsilon": 1e-3}),
}
# the short trace's text -> the same rows in another form a trace file takes
VARIANTS = {
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "comments": lambda text: "# exported\n\n" + text.replace("\n", "\n# next\n\n"),
    "space-starts": lambda text: text.replace("T", " "),
    "bom": lambda text: "\ufeff" + text,
}
SHORT_RATE = 0.1  # the certified and monthly configs' capacity rate
SIMULATE_ALGOS = ("fixed", "anytime", "anytime-deplete", "thr", "eql-dis", "eql-per",
                  "rhc-upper", "rhc-lower", "rhc-mid")
LIMITED_ALGOS = ("fixed", "anytime", "anytime-deplete")  # the --algos whose answers are LPs
RATE_LIMIT_SHARE = 0.5  # the rate-limited calls' --rate-limit, a share of --d-ub
# each (name, argv) of argv[1] run as cli.main(argv); prints {name: [code, stdout, stderr]}
_RUN_CLI = """
import contextlib, io, json, sys, traceback
from peakmin.cli import main
results = {}
for name, argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = 1
            traceback.print_exc()
    results[name] = [code, out.getvalue(), err.getvalue()]
print(json.dumps(results))
"""
_OUTPUTS = (".json", ".txt", ".csv", ".stdout", ".stderr")

_ERROR_TRACE = ["start_iso8601,duration_min,energy_kwh", "2024-05-06T12:00:00,30,10",
                "2024-05-06T12:10:00,45.5,7.25", "2024-05-06T12:20:00,60,12"]
# the inputs of the failing commands: file name -> text
_ERROR_INPUTS = {
    "errors-bad-start.csv": "\n".join([*_ERROR_TRACE[:3], "2024-02-30T12:00:00,30,10",
                                       _ERROR_TRACE[3]]) + "\n",
    "errors-underscore.csv": "\n".join([*_ERROR_TRACE[:2], "2024-05-06T12:05:00,1_000,10",
                                        *_ERROR_TRACE[2:]]) + "\n",
    "errors.demands": "1.5\n2.5\n",
    "errors-days.json": json.dumps({
        "day_keys": ["2024-05-06"], "day_values": [[1.0, 2.5]], "slot_minutes": 15,
        "on_peak_start": "12:00", "on_peak_end": "12:30", "scale_factor": 1.0,
        "demand_lb": 1.0, "demand_ub": 2.0, "avg_daily_energy": 3.5}),
    "errors-day-above-ub.json": json.dumps({"profiles": "errors-days.json"}),
    "errors-unknown-key.json": json.dumps({"profiles": "errors-days.json", "capacity": 0.1}),
}
_SIMULATE_FIXED = ["simulate", "-c", "0.5", "--d-lb", "1", "--d-ub", "3",
                   "--demands", "errors.demands", "--algo", "fixed"]
# command name -> argv of each command that must fail, run on _ERROR_INPUTS
ERROR_CALLS = {
    "error-demand-above-ub": [*_SIMULATE_FIXED, "--d-ub", "2"],
    "error-pi-below-1": [*_SIMULATE_FIXED, "--pi", "0.5"],
    "error-epsilon-0": [*_SIMULATE_FIXED, "--epsilon", "0"],
    "error-solve-horizon": ["solve", "-c", "0.5", "--d-lb", "1", "--d-ub", "3",
                            "--demands", "errors.demands", "--horizon", "3"],
    "error-cr-capacity-at-floor": ["cr", "-c", "4", "-T", "4", "--d-lb", "1", "--d-ub", "3"],
    "error-cr-capacity-above-floor": ["cr", "-c", "5", "-T", "4", "--d-lb", "1", "--d-ub", "3"],
    **{f"error-{key}": ["experiment", "--config", f"errors-{key}.json", "--output-dir", key]
       for key in ("unknown-key", "day-above-ub")},
    **{f"error-ingest-{key}": ["ingest", "--input", f"errors-{key}.csv",
                               "--output", f"errors-{key}.json"]
       for key in ("bad-start", "underscore")},
}


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@functools.cache
def _inputs():
    """perfbench/inputs.py, read only: the workloads' trace generator and rates."""
    return _load("perfbench_inputs", ROOT / "perfbench" / "inputs.py")


def write_traces(seeds, chunks: int, into: Path) -> dict:
    """Trace name -> (CSV path, kind): the sweep_trace chunks of each seed
    (kind "chunk"), one short trace per seed (kind "short") and its VARIANTS
    (kind "variant", ingested only)."""
    inputs = _inputs()
    traces = {}
    for seed in seeds:
        for k in range(chunks):
            chunk_seed = int(np.random.default_rng([seed, k]).integers(2**31))
            traces[f"s{seed}-chunk{k}"] = (inputs.charging_trace_csv(chunk_seed, CHUNK_DAYS),
                                           "chunk")
        short = inputs.charging_trace_csv(seed, 3, start=SHORT_START)
        traces[f"s{seed}-short"] = (short, "short")
        for name, variant in VARIANTS.items():
            traces[f"s{seed}-short-{name}"] = (variant(short), "variant")
    paths = {}
    for name, (text, kind) in traces.items():
        path = into / f"{name}.csv"
        path.write_text(text, encoding="utf-8")
        paths[name] = (path, kind)
    return paths


def _run_cli(tree: Path, calls: dict, out: Path) -> dict:
    """Run calls (name -> argv) in one fresh process of tree, in out, so that
    the paths they print are the same on both sides; writes each one's
    stdout and stderr there and returns name -> exit code."""
    try:
        proc = subprocess.run([sys.executable, "-c", _RUN_CLI, json.dumps(list(calls.items()))],
                              cwd=out, env={**os.environ, "PYTHONPATH": str(tree / "src")},
                              check=True, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{tree}: CLI calls {', '.join(calls)} still running after "
                           f"{CLI_TIMEOUT_S} s") from None
    codes = {}
    for name, (code, stdout, stderr) in json.loads(proc.stdout).items():
        (out / f"{name}.stdout").write_text(stdout, encoding="utf-8")
        (out / f"{name}.stderr").write_text(stderr, encoding="utf-8")
        codes[name] = code
    return codes


def _short_day_calls(name: str, payload: dict, out: Path) -> dict:
    """simulate with every --algo, and cr, on the first day at SHORT_RATE;
    then cr and the LP-certified --algos again at a --rate-limit of
    RATE_LIMIT_SHARE of the demand ceiling."""
    demands = f"{name}-day0.demands"
    day = payload["day_values"][0]
    (out / demands).write_text("".join(f"{v!r}\n" for v in day), encoding="utf-8")
    lb, ub = payload["demand_lb"], payload["demand_ub"]
    instance = ["-c", repr(SHORT_RATE * payload["avg_daily_energy"]),
                "--d-lb", repr(lb), "--d-ub", repr(ub)]
    flags = {"thr": ["--threshold", repr(0.5 * (lb + ub))], "eql-per": ["--ratio", repr(SHORT_RATE)]}
    calls = {f"{name}-simulate-{algo}": ["simulate", *instance, "--demands", demands, "--algo", algo,
                                         "--epsilon", "1e-3", *flags.get(algo, [])]
             for algo in SIMULATE_ALGOS}
    calls[f"{name}-cr"] = ["cr", *instance, "-T", str(len(day))]
    limited = [*instance, "--rate-limit", repr(RATE_LIMIT_SHARE * ub)]
    for algo in LIMITED_ALGOS:
        calls[f"{name}-simulate-{algo}-rate-limited"] = [
            "simulate", *limited, "--demands", demands, "--algo", algo, "--epsilon", "1e-3"]
    calls[f"{name}-cr-rate-limited"] = ["cr", *limited, "-T", str(len(day))]
    return calls


def run_tree(tree: Path, traces: dict, out: Path) -> dict:
    """Run every ingest, experiment, simulate and cr in tree, and each
    command of ERROR_CALLS, writing under out; returns command name -> exit
    code."""
    ingests = {f"{name}.json": ["ingest", "--input", str(csv_path),
                                "--output", f"{name}.json", *WINDOWS[kind]]
               for name, (csv_path, kind) in traces.items()}
    codes = _run_cli(tree, ingests, out)
    for name, text in _ERROR_INPUTS.items():
        (out / name).write_text(text, encoding="utf-8")
    return {**codes, **_run_cli(tree, {**_day_set_calls(traces, out), **ERROR_CALLS}, out)}


def _day_set_calls(traces: dict, out: Path) -> dict:
    """Every experiment, simulate and cr on the ingest JSON in out (name ->
    argv), with the experiment configs written there."""
    calls = {}
    for name, (_csv_path, kind) in traces.items():
        days = out / f"{name}.json"
        if not days.exists():
            continue
        payload = json.loads(days.read_text(encoding="utf-8"))
        limit = len(payload["day_values"][0]) * payload["demand_lb"]
        rates = [r for r in _inputs().CAPACITY_RATES if r * payload["avg_daily_energy"] <= limit]
        for label, (trace_kind, settings) in CONFIGS.items():
            if trace_kind != kind:
                continue
            config = out / f"{name}-{label}.json"
            config.write_text(json.dumps({"profiles": days.name, "capacity_rates": rates,
                                          **settings}), encoding="utf-8")
            calls[config.stem] = ["experiment", "--config", config.name,
                                  "--output-dir", config.stem]
        if kind == "short":
            calls.update(_short_day_calls(name, payload, out))
    return calls


def cross_load(tree: Path, traces: dict, parent_out: Path, parent_codes: dict,
               out: Path) -> list[str]:
    """Run tree's experiments, in out, on the ingest JSON in parent_out; what
    differs from the parent's exit codes, report.txt and series.csv."""
    for name in traces:
        if (parent_out / f"{name}.json").exists():
            shutil.copy(parent_out / f"{name}.json", out)
    experiments = {name: argv for name, argv in _day_set_calls(traces, out).items()
                   if argv[0] == "experiment"}
    found = []
    for name, code in _run_cli(tree, experiments, out).items():
        if code != parent_codes.get(name):
            found.append(f"cross-load {name}: exit {parent_codes.get(name)} (parent) != {code}")
        for rel in (f"{name}/report.txt", f"{name}/series.csv"):
            a, b = parent_out / rel, out / rel
            if a.exists() != b.exists() or (a.exists() and a.read_bytes() != b.read_bytes()):
                found.append(f"cross-load {rel}: differs from the parent's")
    return found


def differences(parent_out: Path, change_out: Path, parent_codes: dict,
                change_codes: dict) -> list[str]:
    """What differs between the two output trees: exit codes, files present
    on one side only, and files whose bytes differ."""
    found = [f"{name}: exit {parent_codes.get(name)} (parent) != {change_codes.get(name)} (change)"
             for name in sorted(parent_codes.keys() | change_codes.keys())
             if parent_codes.get(name) != change_codes.get(name)]
    files = {p.relative_to(root) for root in (parent_out, change_out)
             for p in root.rglob("*") if p.is_file() and p.suffix in _OUTPUTS}
    for rel in sorted(files):
        a, b = parent_out / rel, change_out / rel
        if not (a.exists() and b.exists()):
            found.append(f"{rel}: only in {'parent' if a.exists() else 'change'}")
        elif a.read_bytes() != b.read_bytes():
            found.append(f"{rel}: bytes differ")
    return found


def compare_trees(parent: Path, change: Path, seeds, chunks: int, scratch: Path) -> list[str]:
    traces = write_traces(seeds, chunks, scratch)
    outs = {}
    for side, tree in (("parent", parent), ("change", change)):
        out = scratch / side
        out.mkdir()
        outs[side] = (out, run_tree(tree, traces, out))
    cross = scratch / "cross"
    cross.mkdir()
    return (differences(outs["parent"][0], outs["change"][0], outs["parent"][1], outs["change"][1])
            + cross_load(change, traces, *outs["parent"], cross))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1001, 9001])
    parser.add_argument("--chunks", type=int, default=3,
                        help="sweep_trace chunks per seed (default 3)")
    parser.add_argument("--scratch-dir", default=None,
                        help="where the parent and the outputs go (default: the system temp dir)")
    args = parser.parse_args(argv)
    bench_pairs = _load("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    scratch = Path(tempfile.mkdtemp(prefix="diff-outputs-", dir=args.scratch_dir))
    try:
        tree = scratch / "tree"
        tree.mkdir()
        short = bench_pairs.export_commit(args.parent, tree)
        found = compare_trees(tree, ROOT, args.seeds, args.chunks, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for line in found:
        print(line)
    print(f"{len(found)} difference(s) against {short}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
