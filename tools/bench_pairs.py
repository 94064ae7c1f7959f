"""Paired benchmark runs of a parent commit against the working tree.

    python3 tools/bench_pairs.py --number 12 --parent HEAD~1 --what "..." \
        --pairs anytime_t10=10 --pairs sweep_trace=3 --pairs cr_t20=3

Exports the committed files of the parent with git archive into a
temporary directory, then runs perfbench/run.py (--trace 0, for
BENCHMARK.json's run_seconds) in that directory and in the working tree,
one run at a time: for each workload, seeds FIRST_SEED, FIRST_SEED + 1, ...
and then HELD_OUT_SEED, each seed once on each side, alternating which
side runs first. It refuses to run when the working tree does not differ
from the parent, since both sides would then run the same code. Every run is
reported. The result is written, after each pair, to BENCH_<number>.json at
the root of the working tree: per workload and end-to-end metric (as
BENCHMARK.json lists them) the parent's median and quartiles, the change's
median, their ratio, the pairs the change wins and ties, whether the gain
rule is met and the no-regression verdict, over the non-held-out seeds; the
held-out seed's values on each side; and every run's result line. After
each pair it prints the change/parent ratio of every end-to-end metric.

The gain rule: the change wins at least 9 in 10 of the pairs, and its
median is better than the parent's by more than the parent's
interquartile range.

The no-regression verdict (within_bound): whether the change's median is
worse than the parent's by no more than the metric's bound in
BENCHMARK.json, taken as a fraction of the parent's median. It is
"unresolved" where the parent's interquartile range is wider than that
allowance, unless every change run beats every parent run; null for a
metric with no bound.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 1001
HELD_OUT_SEED = 9001
GAIN_WIN_SHARE = 0.9
RUN_TIMEOUT_S = 900  # a perfbench run still going after this is taken as hung


def export_commit(rev: str, into: Path) -> str:
    """The committed files of rev, written under into; returns its short hash."""
    short = subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
                           capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return short


def run_once(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One perfbench run in root: its result line and its env line."""
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=root, check=True, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{root}: {workload} seed {seed} still running after "
                           f"{RUN_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def quartiles(values: list) -> tuple:
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else (values[0],) * 3


def within_bound(parent: list, change: list, lower: bool, bound: float) -> bool | str:
    """The no-regression verdict of one metric's paired values."""
    q1, _, q3 = quartiles(parent)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    allowance = bound * abs(p_med)
    beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
    if q3 - q1 > allowance and not beats_all:
        return "unresolved"
    return (c_med - p_med if lower else p_med - c_med) <= allowance


def summarize(runs: list, held_out: int, metrics: list) -> tuple[dict, dict]:
    """Per workload and metric: the paired summary over the non-held-out
    seeds, and the held-out seed's values."""
    summary, held = {}, {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        summary[workload], held[workload] = {}, {}
        for spec in metrics:
            name, lower = spec["name"], spec["better"] == "lower"
            p, c = ([r[side]["metrics"][name]["value"] for r in mine if r["seed"] != held_out]
                    for side in ("parent", "change"))
            if p:
                q1, _, q3 = quartiles(p)
                p_med, c_med = statistics.median(p), statistics.median(c)
                wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
                gap = p_med - c_med if lower else c_med - p_med
                summary[workload][name] = {
                    "pairs": len(p),
                    "parent_median": p_med,
                    "parent_q1": q1,
                    "parent_q3": q3,
                    "change_median": c_med,
                    "change_over_parent": c_med / p_med if p_med else None,
                    "change_wins": wins,
                    "ties": sum(a == b for a, b in zip(p, c)),
                    "gain_rule_met": wins >= GAIN_WIN_SHARE * len(p) and gap > q3 - q1,
                    "within_bound": (None if spec.get("bound") is None
                                     else within_bound(p, c, lower, spec["bound"])),
                }
            for r in mine:
                if r["seed"] == held_out:
                    held[workload][name] = {side: r[side]["metrics"][name]["value"]
                                            for side in ("parent", "change")}
    return summary, held


def pair_ratios(run: dict, metrics: list) -> str:
    """Each end-to-end metric's change/parent ratio in one pair, as text."""
    parts = []
    for spec in metrics:
        p, c = (run[side]["metrics"][spec["name"]]["value"] for side in ("parent", "change"))
        parts.append(f"{spec['name']} {c / p:.4g}" if p else f"{spec['name']} -")
    return ", ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--number", required=True, help="writes BENCH_<number>.json")
    parser.add_argument("--what", required=True, help="one line on what the change does")
    parser.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N",
                        help="N paired seeds of WORKLOAD, plus the held-out seed")
    parser.add_argument("--parent", required=True,
                        help="the commit the change is measured against")
    parser.add_argument("--scratch-dir", default=None,
                        help="where the parent is exported (default: the system temp dir)")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    plan = []
    for pair in args.pairs:
        workload, _, n = pair.partition("=")
        if workload not in names or not n.isdecimal() or int(n) < 1:
            parser.error(f"--pairs {pair!r}: expected WORKLOAD=N, WORKLOAD one of "
                         f"{', '.join(names)} and N an integer >= 1")
        plan.append((workload, int(n)))
    if subprocess.run(["git", "diff", "--quiet", args.parent], cwd=ROOT).returncode == 0:
        parser.error(f"the working tree does not differ from {args.parent}")
    out = ROOT / f"BENCH_{args.number}.json"
    seeds = sorted({FIRST_SEED + i for _w, n in plan for i in range(n)})
    report = {
        "what": args.what,
        "parent_commit": None,
        "host": None,
        "seeds": seeds + [HELD_OUT_SEED],
        "held_out_seed": HELD_OUT_SEED,
        "order": "pairs alternate which side runs first (field 'first'); "
                 "one run at a time on the host",
        "summary_excluding_held_out": {},
        "held_out": {},
        "runs": [],
    }
    scratch = Path(tempfile.mkdtemp(prefix="bench-parent-", dir=args.scratch_dir))
    try:
        report["parent_commit"] = export_commit(args.parent, scratch)
        roots = {"parent": scratch, "change": ROOT}
        for workload, n in plan:
            plan_seeds = [FIRST_SEED + i for i in range(n)] + [HELD_OUT_SEED]
            for k, seed in enumerate(plan_seeds):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                command = (f"python3 perfbench/run.py --workload {workload} --seed {seed} "
                           f"--seconds {seconds:g}")
                run = {"command": command, "workload": workload, "seed": seed, "first": order[0]}
                for side in order:
                    run[side], env = run_once(roots[side], workload, seed, seconds)
                    report["host"] = report["host"] or env
                report["runs"].append(run)
                report["summary_excluding_held_out"], report["held_out"] = summarize(
                    report["runs"], HELD_OUT_SEED, metrics)
                out.write_text(json.dumps(report, indent=1) + "\n")
                print(f"{workload} seed {seed} change/parent: {pair_ratios(run, metrics)}",
                      flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
