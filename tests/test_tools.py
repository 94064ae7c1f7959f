"""Checks of the repository's tools (tools/): argument parsing and the paired summary."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_pair_ratios_prints_every_metric(bench_pairs):
    run = {"parent": {"metrics": {"a": {"value": 2.0}, "b": {"value": 0.0}}},
           "change": {"metrics": {"a": {"value": 1.0}, "b": {"value": 3.0}}}}
    text = bench_pairs.pair_ratios(run, [{"name": "a"}, {"name": "b"}])
    assert text == "a 0.5, b -"
