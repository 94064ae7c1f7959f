"""Argument checks of the repository's tools (tools/)."""

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
