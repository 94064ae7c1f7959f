"""peakmin benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload anytime_t10 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout; the package is imported from ./src. With
--trace 0 the last stdout line is a JSON object carrying the end-to-end
metrics; with --trace 1 the run repeats the work with span wrappers
installed and the JSON carries the per-layer metrics instead. See
perfbench/README.md for the metric definitions.
"""

import os
import sys

# Pin BLAS/OpenMP pools before numpy is imported anywhere, and fix string
# hashing, whose per-process salt moves dict-heavy code by a few percent.
# The hash seed is read at interpreter start, so the script re-executes
# itself in place (same process) once it has set it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# set-up is repeated at least SETUP_MIN times and until SETUP_TOTAL_S
# seconds are spent, at most SETUP_MAX times; setup_s is the median
SETUP_MIN, SETUP_MAX, SETUP_TOTAL_S = 5, 15, 3.0
MODULES = ("core", "offline", "lp", "cr", "online", "baselines", "harness", "cli")


def import_peakmin():
    """Import peakmin afresh from ./src and return its modules."""
    for name in [m for m in sys.modules if m == "peakmin" or m.startswith("peakmin.")]:
        del sys.modules[name]
    pkg = importlib.import_module("peakmin")
    if Path(pkg.__file__).resolve().parent != SRC / "peakmin":
        raise SystemExit(f"perfbench: imported peakmin from {pkg.__file__}, not ./src")
    return SimpleNamespace(pkg=pkg, **{m: importlib.import_module(f"peakmin.{m}") for m in MODULES})


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def end_to_end(outcome, setup_times, rss_mb, setup_scale, scale) -> dict:
    """Times in reference seconds: measured seconds * the scale of the phase
    they were measured in (calibration.py). item_s is a mean: the items of
    anytime_t10 and cr_t20 are a fixed mix whose costs differ several-fold,
    where a median would rest on one or two items."""
    work = outcome.wall_s * scale
    item = statistics.fmean(outcome.item_times) if outcome.item_times else outcome.wall_s
    return {
        "setup_s": (statistics.median(setup_times) * setup_scale, "s"),
        "work_s": (work, "s"),
        "ok_share": ((outcome.attempted - outcome.failed) / outcome.attempted, "share"),
        "items_per_s": (outcome.items / work, "1/s"),
        "item_s": (item * scale, "s"),
        "quality_ratio": (outcome.quality_ratio, "ratio"),
        "max_rss_mb": (rss_mb, "MB"),
    }


def per_layer(tracer, workload, outcome, traced_outcome, traced_s) -> dict:
    calls, total, own = tracer.totals()

    def mean(name, scale):
        return total[name] / calls[name] / scale if calls[name] else 0.0

    def share(prefix):
        return sum(v for k, v in own.items() if k.startswith(prefix)) / traced_s / 1e9

    run_ns = total["online.run_anytime"]
    slots = calls["online.run_anytime"] * workload.horizon
    lp_calls_online, lp_ns_online = tracer.under("online.run_anytime", "lp.solve_lp")
    lfp_in_cr, _ = tracer.under("cr.optimal_cr", "lp.solve_lfp")
    eql = ("baselines.run_equal_discharge", "baselines.run_equal_ratio")
    eql_calls = sum(calls[n] for n in eql)
    # the traced pass repeats set-up, so its warm-up ingest is in the span total
    ingest_s = total["harness.ingest_trace"] / 1e9
    txns = sum(getattr(workload, "txns", ())) + getattr(workload, "warm_txns", 0)
    return {
        "lp.solve_lp_calls": (calls["lp.solve_lp"], "count"),
        "lp.solve_lp_ms": (mean("lp.solve_lp", 1e6), "ms"),
        "lp.solve_lfp_calls": (calls["lp.solve_lfp"], "count"),
        "lp.solve_lfp_ms": (mean("lp.solve_lfp", 1e6), "ms"),
        "lp.max_residual": (tracer.lp_max_residual, "ratio"),
        "lp.nonoptimal_count": (tracer.lp_nonoptimal, "count"),
        "lp.self_share": (share("lp."), "share"),
        "online.lp_per_slot": (lp_calls_online / slots if slots else 0.0, "count"),
        "online.slot_ms": (run_ns / slots / 1e6 if slots else 0.0, "ms"),
        "online.lp_share": (lp_ns_online / run_ns if run_ns else 0.0, "share"),
        "online.fixed_day_ms": (mean("online.run_pcr_pmd", 1e6), "ms"),
        "cr.optimal_cr_s": (mean("cr.optimal_cr", 1e9), "s"),
        "cr.lfp_per_call": (lfp_in_cr / calls["cr.optimal_cr"] if calls["cr.optimal_cr"] else 0.0, "count"),
        "cr.raise_count": (tracer.raised["cr.optimal_cr"], "count"),
        "cr.wrong_count": (traced_outcome.failures["wrong pi* against HiGHS"], "count"),
        "offline.water_fill_calls": (calls["offline.water_fill_threshold"], "count"),
        "offline.water_fill_us": (mean("offline.water_fill_threshold", 1e3), "us"),
        "offline.solve_us": (mean("offline.solve_offline_pmd", 1e3), "us"),
        "offline.self_share": (share("offline."), "share"),
        "baselines.thr_day_us": (mean("baselines.run_threshold", 1e3), "us"),
        "baselines.eql_day_us": (sum(total[n] for n in eql) / eql_calls / 1e3 if eql_calls else 0.0, "us"),
        "baselines.rhc_day_ms": (mean("baselines.run_rhc", 1e6), "ms"),
        "harness.parse_s": (total["harness.parse_transactions"] / 1e9, "s"),
        "harness.ingest_s": (ingest_s, "s"),
        "harness.ingest_txn_per_s": (txns / ingest_s if ingest_s else 0.0, "1/s"),
        "harness.experiment_s": (total["harness.run_experiment"] / 1e9, "s"),
        "harness.self_share": (share("harness."), "share"),
        "cli.self_s": (own["cli.main"] / 1e9, "s"),
        "core.profile_build_us": (mean("core.DemandProfile", 1e3), "us"),
        "core.schedule_check_us": (mean("core.DischargeSchedule", 1e3), "us"),
        "trace.overhead_s": (traced_outcome.wall_s - outcome.wall_s, "s"),
        "trace.spans": (len(tracer.names), "count"),
    }


def layer_invariants(workload, metrics) -> list:
    """Checks that the wrappers measure what they claim to."""
    errors = []
    if workload.name == "sweep_trace" and metrics["lp.solve_lp_calls"][0] != 0:
        errors.append("sweep_trace called solve_lp; its roster has no ratio policy")
    if workload.name == "anytime_t10" and not (
            metrics["lp.solve_lp_calls"][0] > 0 and metrics["online.lp_share"][0] > 0):
        errors.append("anytime_t10 traced no solve_lp under run_anytime")
    return errors


def run_one(args) -> int:
    if not (SRC / "peakmin" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}/peakmin; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (imported outside set-up timing)

    import calibration
    import tracing
    import workloads

    import_peakmin()
    tracing.check_wrapped_names()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds, workdir)
        setup_times = []
        calibration.start("setup")
        try:
            while len(setup_times) < SETUP_MIN or (
                    sum(setup_times) < SETUP_TOTAL_S and len(setup_times) < SETUP_MAX):
                t0 = calibration.clock()
                pm = import_peakmin()
                workload.setup(pm)
                setup_times.append(calibration.clock() - t0)
            calibration.start("work")
            results = workload.run(pm)
        finally:
            calibration.stop()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        outcome = workload.check(pm, results)
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            t0 = time.perf_counter()
            try:
                workload.setup(pm)
                traced_results = workload.run(pm)
            finally:
                traced_s = time.perf_counter() - t0
                tracer.uninstall()
            traced_outcome = workload.check(pm, traced_results)
            metrics = per_layer(tracer, workload, outcome, traced_outcome, traced_s)
            outcome.invariant_errors += layer_invariants(workload, metrics)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
            tracer.write(spans_path)
        else:
            metrics = end_to_end(outcome, setup_times, rss_mb,
                                 calibration.scale("setup"), calibration.scale("work"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    notes = dict(outcome.notes, item_samples=len(outcome.item_times),
                 fail_share=outcome.failed / outcome.attempted,
                 wall_s=outcome.wall_s, setup_wall_s=statistics.median(setup_times),
                 setup_repeats=len(setup_times),
                 calibration_scale=calibration.scale("work"),
                 calibration_samples=calibration.samples("work"))
    print("figures " + json.dumps(notes, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:>16.6g} {unit}")
    if args.trace:
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
        if args.workload == "anytime_t10":
            share = metrics["online.lp_share"][0]
            print(f"  lp_share floor: online.lp_share {share:.3f} "
                  f"({'>=' if share >= 0.8 else 'BELOW'} 0.8; 0.93 when the benchmark was added)")
    print(f"  attempted {outcome.attempted}, failed {outcome.failed}")
    for kind, count in sorted(outcome.failures.items()):
        print(f"  failed: {kind} x{count}")
    for line in outcome.failed_names:
        print(f"    {line}")
    for line in outcome.invariant_errors:
        print(f"  INVARIANT BROKEN: {line}")
    bad = [n for n, (v, _) in metrics.items() if not math.isfinite(v)]
    for name in bad:
        print(f"  NOT FINITE: {name}")
    result = {
        "correct": not outcome.invariant_errors and not bad,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: {"value": v if math.isfinite(v) else 0.0, "unit": u}
                    for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    import workloads

    code = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, check=False)
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep_trace", "anytime_t10", "cr_t20", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
