"""Self-test of the benchmark: every workload at minimum size, both modes.

    python3 perfbench/selftest.py

Run from the root of a checkout. For each workload it runs run.py with
--seconds 1 (two chunks, one day, the four always-kept census cells), with
tracing off and on, and checks that the last line is the result object with
exactly the metrics BENCHMARK.json names, in its units, all finite. It then
checks the layer invariants of the traced runs, and that run.py refuses to
run, printing no result, in a directory that holds only BENCHMARK.json and
perfbench/. Exits nonzero on the first broken check.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd, workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False)
    return proc


def expect(cond, message):
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def check_result(spec, workload, trace):
    proc = run(ROOT, workload, trace)
    expect(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {set(result)}")
    expect(result["correct"] is True, f"{workload} trace={trace} not correct:\n{proc.stdout}")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, "attempted")
    expect(isinstance(result["failed"], int), "failed")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    expect(set(got) == set(declared), f"{workload}: metrics {sorted(set(got) ^ set(declared))}")
    for name, entry in got.items():
        expect(entry["unit"] == declared[name], f"{name} unit {entry['unit']}")
        value = entry["value"]
        expect(isinstance(value, (int, float)) and math.isfinite(value), f"{name} = {value}")
    print(f"selftest ok: {workload} trace={trace} attempted={result['attempted']} "
          f"failed={result['failed']}")
    return result, proc.stdout


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in [w["name"] for w in spec["workloads"]]:
        check_result(spec, workload, 0)
        traced, _ = check_result(spec, workload, 1)
        metrics = {n: e["value"] for n, e in traced["metrics"].items()}
        if workload == "sweep_trace":
            expect(metrics["lp.solve_lp_calls"] == 0, "sweep_trace called solve_lp")
            expect(metrics["offline.water_fill_calls"] > 0, "sweep_trace traced no water-fill")
        if workload == "anytime_t10":
            expect(metrics["online.lp_share"] > 0, "anytime_t10 traced no LP time")
            print(f"  online.lp_share = {metrics['online.lp_share']:.3f} "
                  "(0.93 at the commit that added this benchmark)")

    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare, "cr_t20", 0)
        expect(proc.returncode != 0, "run.py succeeded without ./src")
        expect('"metrics"' not in proc.stdout, "run.py printed a result without ./src")
    print("selftest ok: refuses to run without ./src")
    return 0


if __name__ == "__main__":
    sys.exit(main())
