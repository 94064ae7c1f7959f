"""Pivot-choice report: a parent commit against the working tree, for a change that moves simplex pivots.

    python3 tools/pivot_report.py --parent HEAD

Exports the committed files of the parent with bench_pairs.export_commit
into a temporary directory and runs the same work in fresh processes of
each tree (PYTHONPATH at the tree's src/; the inputs come from the working
tree's perfbench/inputs.py on both sides):

  runs    run_anytime on the 96 runs: the 8 anytime_t10 days of seeds 11
          and 12 (inputs.anytime_days), each at its capacity rate, in both
          modes, plain, with a 60 kWh rate limit and with a 380 kWh monthly
          peak, each seeded with its instance's optimal_cr pi*, counting
          certificate LP answers (online.solve_lp calls) over all of them
  days    the two T=20 days: day 0 of synthetic_volatile_profiles(2, 20,
          100, 400, seed=7) at c = 0.1 of the mean daily energy, rate-free
          and with a 100 kWh rate limit, run_anytime with optimal_cr
          included, each in a process of its own (REPEATS times, the sides
          alternating). Each process runs the day DAY_RUNS times with the
          slot-certification memo cleared before each run, and reports the
          fastest wall time, the peak RSS and, counted on the first run,
          certificate LP answers, pivots (_Tableau._pivot calls) and,
          apart from them, bound flips (_Tableau._flip calls, none in a
          tree without them)
  census  optimal_cr's pi* on the 13 cr_t20 census cells (inputs.cr_census
          with no time budget), against HiGHS (perfbench/reference.py's
          highs_pi_star, run in the working tree)

It prints how many of the runs and of the T=20 runs are bit-identical
(certified ratios and schedule), and the largest change in certified ratio
(relative) and in schedule (kWh) among the rest, with the runs'
certificate LP answers on both sides; both trees' src/peakmin line
counts (wc -l), in total and per module; each census cell's pi* on both
sides against HiGHS; and certificate LP answers, pivots, bound flips, time
and peak RSS of both T=20 days on both sides. Each side's time is the
median over its processes with its quartiles beside it, and the change is
marked "unresolved" unless the medians differ by more than the wider of
the two sides' quartile spreads. The exit status is 1 when a census
pi* of the working tree is off HiGHS by more than PI_TOL (or optimal_cr
raised there), and 0 otherwise: a change in pivot choices may move last
bits, and the report says by how much.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_SEEDS = (11, 12)
RUN_DAYS = 8  # anytime_t10 days per seed
DAY_HORIZON = 20
JOB_TIMEOUT_S = 3600  # a job still going after this is taken as hung
DAY_RATE_LIMITS = (None, 100.0)  # the two T=20 days
REPEATS = 5  # processes per T=20 day and side
DAY_RUNS = 3  # runs per process, the fastest timed
PI_TOL = 1e-6  # as perfbench/workloads.py counts a wrong pi*
# one job of the JSON spec in argv[1], in the tree on PYTHONPATH; prints its JSON result
_WORKER = """
import json, resource, sys, time
spec = json.loads(sys.argv[1])
sys.path.insert(0, spec["perfbench"])
import inputs
from peakmin import core, cr, harness, lp, online

def record(run):
    return {"ratios": [float(v) for v in run.ratio_trajectory],
            "schedule": [float(v) for v in run.schedule.values]}

def guarded(call):
    try:
        return call()
    except Exception as exc:
        return f"raised {type(exc).__name__}: {exc}"

answers = [0]  # certificate LP answers: online.solve_lp calls
real_solve_lp = online.solve_lp

def answering(program):
    answers[0] += 1
    return real_solve_lp(program)

online.solve_lp = answering

def census_instances():
    cells, _ = inputs.cr_census(harness, 1e9)
    return {c.name: core.validate_instance(c.capacity_c, c.rate_limit, 20, c.demand_lb,
                                           c.demand_ub)
            for c in cells if spec["cells"] is None or c.name in spec["cells"]}

job, out = spec["job"], {}
if job == "runs":
    variants = {"plain": (None, 0.0), "rl60": (60.0, 0.0), "monthly380": (None, 380.0)}
    modes = {"anytime": online.MODE_ANYTIME, "deplete": online.MODE_ANYTIME_DEPLETING}
    for seed in spec["seeds"]:
        rows, rates = inputs.anytime_days(harness, seed, spec["days"])
        energy = float(rows.sum(axis=1).mean())
        for i, (row, rate) in enumerate(zip(rows, rates)):
            for variant, (limit, monthly) in variants.items():
                inst = core.validate_instance(rate * energy, limit, 10, 100.0, 400.0)
                pi = guarded(lambda: cr.optimal_cr(inst).pi_star)
                for mode_name, mode in modes.items():
                    name = f"s{seed}-day{i}-{variant}-{mode_name}"
                    out[name] = pi if isinstance(pi, str) else guarded(lambda: record(
                        online.run_anytime(inst, core.DemandProfile(inst, row),
                                           online.PolicyOptions(mode=mode, monthly_peak=monthly,
                                                                initial_ratio=pi))))
    out = {"runs": out, "answers": answers[0]}
elif job == "day":
    count = {"_pivot": 0, "_flip": 0}

    def counting(name):
        real = getattr(lp._Tableau, name)

        def counted(self, *args):
            count[name] += 1
            return real(self, *args)
        return counted

    for name in count:
        # a tree whose simplex makes no bound flips counts none
        if hasattr(lp._Tableau, name):
            setattr(lp._Tableau, name, counting(name))
    days = harness.synthetic_volatile_profiles(2, spec["horizon"], 100.0, 400.0, seed=7)
    inst = days.instance(0.1 * days.avg_daily_energy, spec["rate_limit"])
    demand = core.DemandProfile(inst, days.day_values[0])
    seconds = []
    for k in range(spec["runs"]):
        if hasattr(online, "_certify"):  # a tree without the memo has none to clear
            online._certify.cache_clear()
        t0 = time.perf_counter()
        run = guarded(lambda: record(online.run_anytime(inst, demand)))
        seconds.append(time.perf_counter() - t0)
        if k == 0:
            out.update(run=run, answers=answers[0], pivots=count["_pivot"], flips=count["_flip"])
    out.update(seconds=min(seconds),
               rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
elif job == "census":
    out = {name: guarded(lambda: cr.optimal_cr(inst).pi_star)
           for name, inst in census_instances().items()}
elif job == "highs":
    import reference
    out = {name: reference.highs_pi_star(cr, inst) for name, inst in census_instances().items()}
print(json.dumps(out))
"""


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load("bench_pairs", ROOT / "tools" / "bench_pairs.py")


def day_times(samples: dict) -> dict:
    """Each side's (q1, median, q3) of seconds over its processes, and
    whether the change is unresolved: its median differs from the parent's
    by no more than the wider of the two sides' quartile spreads."""
    quartiles = {side: bench_pairs.quartiles([r["seconds"] for r in runs])
                 for side, runs in samples.items()}
    spread = max(q3 - q1 for q1, _median, q3 in quartiles.values())
    change = abs(quartiles["change"][1] - quartiles["parent"][1])
    return {**quartiles, "unresolved": change <= spread}


def line_counts(tree: Path) -> dict:
    """Lines (as wc -l counts them) of each module of tree's src/peakmin,
    by file name."""
    return {path.name: path.read_bytes().count(b"\n")
            for path in sorted((tree / "src" / "peakmin").glob("*.py"))}


def run_job(tree: Path, **spec):
    """One _WORKER job in a fresh process of tree; its JSON result."""
    spec["perfbench"] = str(ROOT / "perfbench")
    try:
        proc = subprocess.run([sys.executable, "-c", _WORKER, json.dumps(spec)], cwd=tree,
                              env={**os.environ, "PYTHONPATH": str(tree / "src")},
                              check=True, capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{tree}: job {spec['job']} still running after "
                           f"{JOB_TIMEOUT_S} s") from None
    return json.loads(proc.stdout)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def compare_runs(parent: dict, change: dict) -> dict:
    """Runs (name -> record, or the text of what it raised) on both sides:
    the bit-identical ones, and the largest certified-ratio (relative) and
    schedule (kWh) changes among the rest, and the runs that raised on
    either side; one that raised counts as differing unless both raised
    alike."""
    names = sorted(parent.keys() | change.keys())
    differ = [name for name in names if parent.get(name) != change.get(name)]
    raised = [name for name in names
              if not (isinstance(parent.get(name), dict) and isinstance(change.get(name), dict))]
    ratio = schedule = 0.0
    for name in differ:
        a, b = parent.get(name), change.get(name)
        if name in raised or len(a["ratios"]) != len(b["ratios"]):
            ratio = schedule = float("inf")
            continue
        ratio = max([ratio] + [_rel(x, y) for x, y in zip(a["ratios"], b["ratios"])])
        schedule = max([schedule] + [abs(x - y) for x, y in zip(a["schedule"], b["schedule"])])
    return {"runs": len(names), "identical": len(names) - len(differ), "differ": differ,
            "max_ratio_change": ratio, "max_schedule_change_kwh": schedule, "raised": raised}


def report(parent: Path, change: Path, seeds=RUN_SEEDS, days=RUN_DAYS, cells=None,
           horizon=DAY_HORIZON, repeats=REPEATS, day_runs=DAY_RUNS) -> dict:
    """The whole comparison of two trees, as main prints it; cells (a
    list of census cell names, None for all 13) and the other arguments cut
    it down."""
    trees = {"parent": parent, "change": change}
    runs = {side: run_job(tree, job="runs", seeds=list(seeds), days=days)
            for side, tree in trees.items()}
    day_samples = {}
    for limit in DAY_RATE_LIMITS:
        label = "rate-free" if limit is None else f"{limit:g} kWh"
        samples = {side: [] for side in trees}
        for k in range(repeats):
            for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
                samples[side].append(run_job(trees[side], job="day", horizon=horizon,
                                             rate_limit=limit, runs=day_runs))
        day_samples[label] = samples
    census = {side: run_job(tree, job="census", cells=cells) for side, tree in trees.items()}
    highs = run_job(change, job="highs", cells=cells)
    failures = [name for name, pi in census["change"].items()
                if isinstance(pi, str) or abs(pi - highs[name]) > PI_TOL]
    return {
        "runs": compare_runs(runs["parent"]["runs"], runs["change"]["runs"]),
        "run_answers": {side: runs[side]["answers"] for side in trees},
        "days": compare_runs(*({label: s[side][0]["run"] for label, s in day_samples.items()}
                               for side in trees)),
        "day_work": {label: {side: {key: statistics.median(r[key] for r in s[side])
                                    for key in ("answers", "pivots", "flips", "rss_mb")}
                             for side in trees}
                     for label, s in day_samples.items()},
        "day_times": {label: day_times(s) for label, s in day_samples.items()},
        "lines": {side: line_counts(tree) for side, tree in trees.items()},
        "census": {name: {"highs": highs[name], **{side: census[side][name] for side in trees}}
                   for name in highs},
        "census_differ": [name for name in highs
                          if census["parent"][name] != census["change"][name]],
        "failures": failures,
    }


def _text(found: dict, horizon: int) -> list[str]:
    lines = []
    for key, title in (("runs", "runs"), ("days", f"T={horizon} runs")):
        r = found[key]
        lines.append(f"{title}: {r['identical']} of {r['runs']} bit-identical, "
                     f"{len(r['raised'])} raised on a side")
        if key == "runs":
            lines[-1] += (f"; certificate LP answers {found['run_answers']['parent']:,} -> "
                          f"{found['run_answers']['change']:,}")
        if r["differ"]:
            lines.append(f"  largest change among the other {len(r['differ'])}: certified ratio "
                         f"{r['max_ratio_change']:.2g} relative, schedule "
                         f"{r['max_schedule_change_kwh']:.2g} kWh")
    parent, change = found["lines"]["parent"], found["lines"]["change"]
    lines.append(f"src/peakmin lines (wc -l): {sum(parent.values()):,} -> "
                 f"{sum(change.values()):,}; " + ", ".join(
                     f"{name} {parent.get(name, 0):,} -> {change.get(name, 0):,}"
                     for name in sorted(parent.keys() | change.keys())))
    lines.append(f"census pi* against HiGHS ({len(found['census'])} cells; "
                 f"{len(found['census_differ'])} differ between the sides):")
    for name, cell in found["census"].items():
        parts = [f"  {name:<10} HiGHS {cell['highs']!r}"]
        for side in ("parent", "change"):
            pi = cell[side]
            parts.append(f"{side} {pi}" if isinstance(pi, str)
                         else f"{side} {pi!r} ({abs(pi - cell['highs']):.2g})")
        lines.append(", ".join(parts))
    lines.append(f"T={horizon} days (median over the processes of each side, each timing "
                 f"its fastest run; time quartiles in brackets):")
    for label, work in found["day_work"].items():
        p, c = work["parent"], work["change"]
        (p1, pt, p3), (c1, ct, c3) = (found["day_times"][label][side] for side in work)
        verdict = ", unresolved" if found["day_times"][label]["unresolved"] else ""
        lines.append(f"  {label}: certificate LP answers {p['answers']:,.0f} -> "
                     f"{c['answers']:,.0f}, pivots {p['pivots']:,.0f} -> {c['pivots']:,.0f} "
                     f"(x{c['pivots'] / p['pivots']:.3f}; bound flips {p['flips']:,.0f} -> "
                     f"{c['flips']:,.0f}), time {pt:.3f} [{p1:.3f}-{p3:.3f}] -> {ct:.3f} "
                     f"[{c1:.3f}-{c3:.3f}] s (x{ct / pt:.3f}{verdict}), peak RSS "
                     f"{p['rss_mb']:.1f} -> {c['rss_mb']:.1f} MB")
    lines.append(f"{len(found['failures'])} census cell(s) off HiGHS by more than {PI_TOL:g}"
                 + (f": {', '.join(found['failures'])}" if found["failures"] else ""))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--scratch-dir", default=None,
                        help="where the parent is exported (default: the system temp dir)")
    args = parser.parse_args(argv)
    scratch = Path(tempfile.mkdtemp(prefix="pivot-report-", dir=args.scratch_dir))
    try:
        short = bench_pairs.export_commit(args.parent, scratch)
        found = report(scratch, ROOT)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"parent {short} against the working tree")
    for line in _text(found, DAY_HORIZON):
        print(line)
    return 1 if found["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
