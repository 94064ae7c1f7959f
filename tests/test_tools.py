"""Checks of the repository's tools (tools/): argument parsing and the paired summary."""

import importlib.util
import re
import shutil
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench_pairs():
    return _load("bench_pairs")


@pytest.mark.parametrize("pair", ["anytime_t10", "anytime_t10=x", "anytime_t10=1.5",
                                  "anytime_t10=0", "anytime_t10=-2", "no_such_workload=3"])
def test_bench_pairs_rejects_bad_pairs_before_any_run(monkeypatch, capsys, bench_pairs, pair):
    """A --pairs value without =N, with an N that is not an integer >= 1,
    or naming a workload BENCHMARK.json does not list exits 2 through the
    argument parser, before the parent is exported or anything runs."""

    def no_run(*args):
        raise AssertionError("ran before the arguments were checked")

    monkeypatch.setattr(bench_pairs, "export_commit", no_run)
    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(["--number", "0", "--what", "x", "--parent", "HEAD",
                          "--pairs", "sweep_trace=1", "--pairs", pair])
    assert exit_.value.code == 2
    assert f"--pairs {pair!r}" in capsys.readouterr().err


def _runs(workload, parent, change, held_out=None):
    """Synthetic paired runs: one metric "m" per side, seeds 1, 2, ..."""
    runs = [{"workload": workload, "seed": seed,
             "parent": {"metrics": {"m": {"value": p}}},
             "change": {"metrics": {"m": {"value": c}}}}
            for seed, (p, c) in enumerate(zip(parent, change), start=1)]
    if held_out is not None:
        runs.append({"workload": workload, "seed": 99,
                     "parent": {"metrics": {"m": {"value": held_out[0]}}},
                     "change": {"metrics": {"m": {"value": held_out[1]}}}})
    return runs


@pytest.mark.parametrize("better, parent, change, met", [
    # wins 10 of 10, median gap 5.5 over an interquartile range of 2.25
    ("lower", [10.0 + k % 4 for k in range(10)], [5.0 + k % 2 for k in range(10)], True),
    # wins only 8 of 10
    ("lower", [10.0] * 10, [5.0] * 8 + [11.0] * 2, False),
    # wins 9 of 10: enough
    ("lower", [10.0] * 10, [5.0] * 9 + [11.0], True),
    # wins every pair, but by less than the parent's spread
    ("lower", [10.0 + k for k in range(10)], [9.5 + k for k in range(10)], False),
    # a tie is no win
    ("lower", [10.0] * 10, [10.0] * 10, False),
    # higher is better: the same wins count the other way
    ("higher", [1.0] * 10, [2.0] * 10, True),
    ("higher", [2.0] * 10, [1.0] * 10, False),
])
def test_summarize_gain_rule(bench_pairs, better, parent, change, met):
    """gain_rule_met holds when the change wins at least 9 in 10 pairs and
    its median beats the parent's by more than the parent's interquartile
    range; the held-out seed stays out of the summary."""
    summary, held = bench_pairs.summarize(
        _runs("w", parent, change, held_out=(1e9, -1e9)), 99, [{"name": "m", "better": better}])
    row = summary["w"]["m"]
    assert row["gain_rule_met"] is met
    assert row["pairs"] == 10
    assert row["parent_median"] == pytest.approx(sorted(parent)[4] / 2 + sorted(parent)[5] / 2)
    assert held == {"w": {"m": {"parent": 1e9, "change": -1e9}}}


@pytest.mark.parametrize("better, parent, change, verdict", [
    # 5% worse in the median, inside a 10% bound, parent spread 2% of its median
    ("lower", [100.0 + k % 3 for k in range(10)], [106.0 + k % 3 for k in range(10)], True),
    # 15% worse: outside the bound
    ("lower", [100.0 + k % 3 for k in range(10)], [116.0 + k % 3 for k in range(10)], False),
    # the same for a metric where higher is better
    ("higher", [100.0 + k % 3 for k in range(10)], [96.0 + k % 3 for k in range(10)], True),
    ("higher", [100.0 + k % 3 for k in range(10)], [86.0 + k % 3 for k in range(10)], False),
    # the parent spreads wider than the bound: no verdict either way
    ("lower", [80.0 + 5 * k for k in range(10)], [82.0 + 5 * k for k in range(10)], "unresolved"),
    ("lower", [80.0 + 5 * k for k in range(10)], [200.0] * 10, "unresolved"),
    # ... unless every change run beats every parent run
    ("lower", [80.0 + 5 * k for k in range(10)], [50.0 + k for k in range(10)], True),
    ("higher", [80.0 + 5 * k for k in range(10)], [200.0 + k for k in range(10)], True),
])
def test_summarize_within_bound(bench_pairs, better, parent, change, verdict):
    """within_bound holds when the change's median is worse than the
    parent's by at most the bound, as a fraction of the parent's median; it
    is "unresolved" where the parent's interquartile range is wider than
    that, unless every change run beats every parent run."""
    summary, _ = bench_pairs.summarize(
        _runs("w", parent, change), 99, [{"name": "m", "better": better, "bound": 0.1}])
    assert summary["w"]["m"]["within_bound"] == verdict


def test_summarize_within_bound_is_null_without_a_bound(bench_pairs):
    summary, _ = bench_pairs.summarize(_runs("w", [1.0] * 3, [9.0] * 3), 99,
                                       [{"name": "m", "better": "lower"}])
    assert summary["w"]["m"]["within_bound"] is None


def test_pair_ratios_prints_every_metric(bench_pairs):
    run = {"parent": {"metrics": {"a": {"value": 2.0}, "b": {"value": 0.0}}},
           "change": {"metrics": {"a": {"value": 1.0}, "b": {"value": 3.0}}}}
    text = bench_pairs.pair_ratios(run, [{"name": "a"}, {"name": "b"}])
    assert text == "a 0.5, b -"


def test_diff_outputs_finds_no_difference_between_a_tree_and_itself(tmp_path):
    """Every ingest and experiment of one seed's first chunk and short trace,
    the ingest of each variant of the short trace, every simulate and cr on
    the short trace's first day (the rate-limited ones too), and every
    failing command of ERROR_CALLS runs, and a tree compared with itself
    gives the same bytes and codes, also when it runs the experiments on the
    other side's ingest JSON (the cross-load)."""
    diff_outputs = _load("diff_outputs")
    root = _TOOLS.parent
    assert diff_outputs.compare_trees(root, root, [1001], 1, tmp_path) == []
    change = tmp_path / "change"
    reports = {f"s1001-{name}/report.txt" for name in
               ("chunk0-sweep", "chunk0-rate-limited", "chunk0-long-window", "short-certified",
                "short-monthly")}
    for side in (change, tmp_path / "cross"):
        assert {p.relative_to(side).as_posix() for p in side.rglob("*.txt")} == reports
    commands = ([f"simulate-{algo}" for algo in diff_outputs.SIMULATE_ALGOS] + ["cr"]
                + [f"simulate-{algo}-rate-limited" for algo in diff_outputs.LIMITED_ALGOS]
                + ["cr-rate-limited"])
    for command in commands:
        stdout = (change / f"s1001-short-{command}.stdout").read_text(encoding="utf-8")
        assert stdout.startswith(("slot,demand", "pi_star,")), command
        assert (change / f"s1001-short-{command}.stderr").read_text(encoding="utf-8") == ""
    assert (change / "s1001-chunk0-sweep.stdout").read_text(encoding="utf-8") == (
        "wrote s1001-chunk0-sweep/report.txt\nwrote s1001-chunk0-sweep/series.csv\n")
    # each variant of the short trace holds its rows, so it ingests to the same day set
    for variant in diff_outputs.VARIANTS:
        assert (change / f"s1001-short-{variant}.json").read_bytes() == (
            change / "s1001-short.json").read_bytes(), variant
    # each failing command prints nothing and fails for the reason it is there for
    errors = {"error-demand-above-ub": "DemandOutOfBounds: demand entries outside",
              "error-pi-below-1": "MalformedRecord: --pi",
              "error-epsilon-0": "MalformedRecord: --epsilon",
              "error-solve-horizon": "MalformedRecord: --horizon 3",
              "error-cr-capacity-at-floor": "DegenerateInstance",
              "error-cr-capacity-above-floor": "CapacityExceedsMinDemand",
              "error-unknown-key": "MalformedRecord: errors-unknown-key.json: unknown key",
              "error-day-above-ub": "MalformedRecord: profile set JSON rejected",
              "error-ingest-bad-start": "MalformedRecord: line 4: day is out of range for month",
              "error-ingest-underscore":
                  "MalformedRecord: line 3: could not convert string to float: '1_000'"}
    assert errors.keys() == diff_outputs.ERROR_CALLS.keys()
    for name, start in errors.items():
        assert (change / f"{name}.stdout").read_text(encoding="utf-8") == "", name
        assert (change / f"{name}.stderr").read_text(encoding="utf-8").startswith(start), name


def test_diff_outputs_names_each_difference(tmp_path):
    diff_outputs = _load("diff_outputs")
    for side, text in (("parent", "a"), ("change", "b")):
        (tmp_path / side / "x").mkdir(parents=True)
        (tmp_path / side / "x" / "report.txt").write_text(text)
    (tmp_path / "change" / "days.json").write_text("{}")
    found = diff_outputs.differences(tmp_path / "parent", tmp_path / "change",
                                     {"x": 0, "days.json": 2}, {"x": 0, "days.json": 0})
    assert found == ["days.json: exit 2 (parent) != 0 (change)", "days.json: only in change",
                     "x/report.txt: bytes differ"]


def test_diff_outputs_cross_load_names_each_difference(tmp_path):
    """The cross-load runs the tree's experiments on the parent's ingest
    JSON, and names each exit code and report file that is not the parent's."""
    diff_outputs = _load("diff_outputs")
    parent, cross = tmp_path / "parent", tmp_path / "cross"
    for out in (parent, cross):
        out.mkdir()
    shutil.copy(_TOOLS.parent / "tests" / "golden" / "ingest_days.json", parent / "x.json")
    (parent / "x-sweep").mkdir()
    (parent / "x-sweep" / "report.txt").write_text("stale\n", encoding="utf-8")
    # rhc_window 9 exceeds the golden day set's 4 slots, so long-window
    # fails on both sides and writes no report
    found = diff_outputs.cross_load(_TOOLS.parent, {"x": (None, "chunk")}, parent,
                                    {"x-sweep": 0, "x-rate-limited": 2, "x-long-window": 2},
                                    cross)
    assert found == ["cross-load x-sweep/report.txt: differs from the parent's",
                     "cross-load x-sweep/series.csv: differs from the parent's",
                     "cross-load x-rate-limited: exit 2 (parent) != 0",
                     "cross-load x-rate-limited/report.txt: differs from the parent's",
                     "cross-load x-rate-limited/series.csv: differs from the parent's"]


def test_pivot_report_finds_no_difference_between_a_tree_and_itself():
    """On a cut-down report (one seed-11 day in its three variants and both
    modes, one census cell, the two days at T=8, one process each of two
    runs) a tree compared with itself is bit-identical everywhere, counts
    the same certificate LP answers, pivots and bound flips on both sides
    and the same src/peakmin lines, and its census pi* matches HiGHS."""
    pytest.importorskip("scipy")
    pivot_report = _load("pivot_report")
    root = _TOOLS.parent
    found = pivot_report.report(root, root, seeds=(11,), days=1, cells=["vol@0.1"], horizon=8,
                                repeats=1, day_runs=2)
    assert found["runs"] == {"runs": 6, "identical": 6, "differ": [], "max_ratio_change": 0.0,
                             "max_schedule_change_kwh": 0.0, "raised": []}
    assert found["days"] == {"runs": 2, "identical": 2, "differ": [], "max_ratio_change": 0.0,
                             "max_schedule_change_kwh": 0.0, "raised": []}
    assert list(found["census"]) == ["vol@0.1"]
    assert found["census_differ"] == [] and found["failures"] == []
    answers = found["run_answers"]["parent"]
    assert found["run_answers"] == {"parent": answers, "change": answers} and answers > 0
    for work in found["day_work"].values():
        assert work["parent"]["answers"] == work["change"]["answers"] > 0
        assert work["parent"]["pivots"] == work["change"]["pivots"] > 0
        assert work["parent"]["flips"] == work["change"]["flips"]
    counts = found["lines"]["parent"]
    assert found["lines"]["change"] == counts and "cr.py" in counts and "online.py" in counts
    total = sum(counts.values())
    text = pivot_report._text(found, 8)
    assert text[0] == (f"runs: 6 of 6 bit-identical, 0 raised on a side; "
                       f"certificate LP answers {answers:,} -> {answers:,}")
    assert text[2].startswith(f"src/peakmin lines (wc -l): {total:,} -> {total:,}; ")
    assert f"cr.py {counts['cr.py']:,} -> {counts['cr.py']:,}" in text[2]
    assert text[-1] == "0 census cell(s) off HiGHS by more than 1e-06"
    for label, times in found["day_times"].items():
        line = next(line for line in text if line.startswith(f"  {label}: "))
        assert ("unresolved" in line) == times["unresolved"]


def test_pivot_report_marks_a_time_change_inside_the_parents_spread_unresolved():
    """Three reports of the same two trees read the rate-free T=20 day
    x0.782, x1.047 and x0.946, and a fourth 0.316 [0.314-0.337] -> 0.354
    [0.307-0.410] s, x1.122, for a change that moved no pivot: a change of
    median time no larger than the wider of the two sides' quartile
    spreads is marked unresolved."""
    pivot_report = _load("pivot_report")

    def times(parent, change):
        return pivot_report.day_times({side: [{"seconds": s} for s in values]
                                       for side, values in (("parent", parent), ("change", change))})

    noise = times((0.60, 0.70, 0.80), (0.52, 0.55, 0.75))
    assert noise["parent"] == pytest.approx((0.60, 0.70, 0.80))
    assert noise["change"] == pytest.approx((0.52, 0.55, 0.75))
    assert noise["unresolved"]
    assert not times((0.60, 0.70, 0.80), (0.40, 0.45, 0.50))["unresolved"]
    # the change side's spread (0.103 s) is the wider: 0.038 s is inside it
    assert times((0.314, 0.316, 0.337), (0.307, 0.354, 0.410))["unresolved"]
    assert not times((0.314, 0.316, 0.337), (0.400, 0.420, 0.440))["unresolved"]


def test_each_tool_fails_on_a_tree_that_hangs(monkeypatch, tmp_path):
    """A child process of a tree that hangs is stopped at the tool's
    timeout, patched here to half a second, and the tool fails with a
    message that names the tree and the job instead of waiting forever."""
    tree = tmp_path / "tree"
    for hang in (tree / "src" / "peakmin" / "__init__.py", tree / "perfbench" / "run.py"):
        hang.parent.mkdir(parents=True)
        hang.write_text("import time\ntime.sleep(60)\n", encoding="utf-8")
    bench_pairs, diff_outputs, pivot_report = map(
        _load, ("bench_pairs", "diff_outputs", "pivot_report"))
    monkeypatch.setattr(bench_pairs, "RUN_TIMEOUT_S", 0.5)
    monkeypatch.setattr(diff_outputs, "CLI_TIMEOUT_S", 0.5)
    monkeypatch.setattr(pivot_report, "JOB_TIMEOUT_S", 0.5)
    named = f"^{re.escape(str(tree))}: "
    with pytest.raises(RuntimeError, match=named + "sweep_trace seed 7 still running after 0.5 s$"):
        bench_pairs.run_once(tree, "sweep_trace", 7, 1.0)
    with pytest.raises(RuntimeError, match=named + "CLI calls x-sweep still running after 0.5 s$"):
        diff_outputs._run_cli(tree, {"x-sweep": ["--help"]}, tmp_path)
    with pytest.raises(RuntimeError, match=named + "job day still running after 0.5 s$"):
        pivot_report.run_job(tree, job="day")
