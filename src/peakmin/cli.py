"""Command-line entry point for solving, simulating, and experimenting.

Subcommands:
  solve       offline optimum of a demand profile file
  cr          optimal competitive ratio of an instance
  simulate    run one policy over a demand profile, streaming per-slot rows
  ingest      convert a transaction trace to a day-profile JSON file
  experiment  run an experiment config file and write report/series files

All numeric output uses a fixed six-decimal format so identical invocations
produce byte-identical text.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .core import DemandProfile, Instance, is_positive
from .cr import _floor_quotient, optimal_cr
from .errors import MalformedRecord, PeakMinError
from .harness import (
    ALGO_EQUAL_RATIO,
    ALGO_THR,
    EXPERIMENT_FIELDS,
    POLICY_RUNNERS,
    ExperimentConfig,
    RunSettings,
    SlottingConfig,
    ingest_trace,
    load_profile_set,
    load_transactions,
    parse_decimal,
    run_experiment,
    save_profile_set,
)
from .offline import solve_offline_pmd
# run_anytime and run_pcr_pmd are not called here (simulate runs through
# POLICY_RUNNERS); the benchmark's tracer wraps these cli attributes by name
from .online import PolicyOptions, _check_ratio, run_anytime, run_pcr_pmd  # noqa: F401

_FMT = "{:.6f}"

# the flag each algorithm cannot run without
_REQUIRED_FLAGS = {ALGO_THR: "threshold", ALGO_EQUAL_RATIO: "ratio"}


def _f(x: float) -> str:
    return _FMT.format(float(x))


def ascii_int(text: str) -> int:
    """int(text) for signed ASCII digits: int() also reads "1_0", " 9" and "\u0664"."""
    if not (text.isascii() and text.lstrip("+-").isdigit()):
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)


def read_demand_file(path) -> np.ndarray:
    """Parse a demand profile file: one kWh value per line, # comments allowed."""
    values = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            values.append(parse_decimal(line))
        except ValueError:
            raise MalformedRecord(f"line {lineno}: not a number: {line!r}")
    if not values:
        raise MalformedRecord(f"{path}: no demand values found")
    return np.array(values, dtype=float)


def _add_instance_flags(parser: argparse.ArgumentParser, with_horizon: bool = True) -> None:
    parser.add_argument("-c", "--capacity", type=parse_decimal, required=True,
                        help="total storage inventory for the period (kWh)")
    if with_horizon:
        parser.add_argument("-T", "--horizon", type=ascii_int, required=True,
                            help="number of slots in the operating period")
    parser.add_argument("--rate-limit", type=parse_decimal, default=None,
                        help="per-slot discharge cap (kWh); omit for unbounded")
    parser.add_argument("--d-lb", type=parse_decimal, required=True,
                        help="lower demand bound (kWh), must be positive")
    parser.add_argument("--d-ub", type=parse_decimal, required=True,
                        help="upper demand bound (kWh)")


def _instance_from_args(args, horizon: int | None = None) -> Instance:
    T = horizon if horizon is not None else args.horizon
    return Instance(args.capacity, args.rate_limit, T, args.d_lb, args.d_ub)


def _cmd_solve(args) -> int:
    demands = read_demand_file(args.demands)
    instance = _instance_from_args(args, horizon=len(demands))
    if args.horizon is not None and args.horizon != len(demands):
        raise MalformedRecord(
            f"--horizon {args.horizon} != {len(demands)} values in {args.demands}"
        )
    solution = solve_offline_pmd(instance, DemandProfile(instance, demands))
    print("slot,demand,discharge,net")
    for t, (d, delta) in enumerate(zip(demands, solution.schedule.values), start=1):
        print(f"{t},{_f(d)},{_f(delta)},{_f(d - delta)}")
    print(f"threshold_v,{_f(solution.threshold_v)}")
    print(f"peak,{_f(solution.peak)}")
    return 0


def _cmd_cr(args) -> int:
    instance = _instance_from_args(args)
    result = optimal_cr(instance)
    tau = _floor_quotient(instance.capacity_c, instance.demand_ub)
    print(f"pi_star,{_f(result.pi_star)}")
    print(f"tau,{tau}")
    print("argmax_set," + " ".join(str(i) for i in result.argmax_set))
    if result.witness_profile is None:
        print("witness,none")
    else:
        print("witness," + " ".join(_f(v) for v in result.witness_profile.values))
    return 0


def _resolve_pi(args) -> float | None:
    """--pi auto means the optimal competitive ratio; otherwise a finite number >= 1."""
    if args.pi is None or args.pi == "auto":
        return None
    try:
        pi = parse_decimal(args.pi)
        _check_ratio(pi)
    except ValueError:
        raise MalformedRecord(f"--pi expects a finite number >= 1 or 'auto', got {args.pi!r}") from None
    return pi


def _simulate_run(args, instance: Instance, profile: DemandProfile):
    flag = _REQUIRED_FLAGS.get(args.algo)
    if flag is not None and getattr(args, flag) is None:
        raise MalformedRecord(f"--{flag} is required for --algo {args.algo}")
    # checked for every --algo, whether or not it reads them
    pi = _resolve_pi(args)
    if not is_positive(args.epsilon):
        raise MalformedRecord(f"--epsilon must be positive and finite, got {args.epsilon}")
    settings = RunSettings(
        pi=pi,
        epsilon=args.epsilon,
        threshold=args.threshold,
        ratio=args.ratio,
        window=args.window,
    )
    return POLICY_RUNNERS[args.algo](instance, profile, settings)


def _cmd_simulate(args) -> int:
    demands = read_demand_file(args.demands)
    instance = _instance_from_args(args, horizon=len(demands))
    profile = DemandProfile(instance, demands)
    run = _simulate_run(args, instance, profile)
    trajectory = run.ratio_trajectory
    print("slot,demand,discharge,net,ratio")
    for t in range(len(demands)):
        d = demands[t]
        delta = run.schedule.values[t]
        ratio = _f(trajectory[t]) if trajectory.size else "-"
        print(f"{t + 1},{_f(d)},{_f(delta)},{_f(d - delta)},{ratio}")
    offline = solve_offline_pmd(instance, profile)
    print(f"final_peak,{_f(run.final_peak)}")
    print(f"offline_peak,{_f(offline.peak)}")
    print(f"inventory_spent,{_f(run.inventory_spent)}")
    return 0


def _cmd_ingest(args) -> int:
    bounds = None
    if args.d_lb is not None or args.d_ub is not None:
        if args.d_lb is None or args.d_ub is None:
            raise MalformedRecord("--d-lb and --d-ub must be given together")
        bounds = (args.d_lb, args.d_ub)
    config = SlottingConfig(
        slot_minutes=args.slot_minutes,
        on_peak_start=args.window_start,
        on_peak_end=args.window_end,
        scale_factor=args.scale,
        demand_bounds=bounds,
    )
    transactions = load_transactions(args.input)
    profiles = ingest_trace(transactions, config)
    save_profile_set(profiles, args.output)
    print(f"wrote {args.output}: {profiles.num_days} days x {profiles.horizon} slots")
    return 0


# each experiment config key: the check its JSON value must pass, and what it expects
_CONFIG_KEYS = {"profiles": (lambda v: isinstance(v, str), "a path"), **EXPERIMENT_FIELDS}


def _cmd_experiment(args) -> int:
    config_path = Path(args.config)
    try:
        raw = json.loads(config_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise MalformedRecord(f"{config_path}: invalid JSON: {exc}")
    if not isinstance(raw, dict) or "profiles" not in raw:
        raise MalformedRecord(f"{config_path}: expected an object with a 'profiles' key")
    for key, value in raw.items():
        if key not in _CONFIG_KEYS:
            raise MalformedRecord(f"{config_path}: unknown key {key!r} "
                                  f"(expected one of {', '.join(_CONFIG_KEYS)})")
        check, expected = _CONFIG_KEYS[key]
        if not check(value):
            raise MalformedRecord(f"{config_path}: {key!r} must be {expected}, got {value!r}")
    profiles_path = Path(raw["profiles"])
    if not profiles_path.is_absolute():
        profiles_path = config_path.parent / profiles_path
    profiles = load_profile_set(profiles_path)
    # every key but "profiles" is an ExperimentConfig field, checked above
    config = ExperimentConfig(profiles=profiles, **{k: v for k, v in raw.items() if k != "profiles"})
    report = run_experiment(config)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.txt"
    series_path = out_dir / "series.csv"
    report_path.write_text(report.render_text(), encoding="utf-8")
    series_path.write_text("\n".join(report.series_lines()) + "\n", encoding="utf-8")
    print(f"wrote {report_path}")
    print(f"wrote {series_path}")
    return 0


# built once per process: parse_args fills a fresh Namespace on every call
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peakmin",
        description="Peak-demand minimization with limited storage: offline optimum, "
        "optimal competitive ratios, online policies, and trace experiments.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_solve = sub.add_parser("solve", help="offline optimum of a demand profile file")
    _add_instance_flags(p_solve, with_horizon=False)
    p_solve.add_argument("-T", "--horizon", type=ascii_int, default=None,
                         help="optional cross-check against the file length")
    p_solve.add_argument("--demands", required=True,
                         help="demand file: one kWh value per line, # comments allowed")
    p_solve.set_defaults(func=_cmd_solve)

    p_cr = sub.add_parser("cr", help="optimal competitive ratio of an instance")
    _add_instance_flags(p_cr)
    p_cr.set_defaults(func=_cmd_cr)

    p_sim = sub.add_parser("simulate", help="run one policy over a demand profile")
    _add_instance_flags(p_sim, with_horizon=False)
    p_sim.add_argument("--demands", required=True,
                       help="demand file: one kWh value per line, # comments allowed")
    p_sim.add_argument("--algo", required=True, choices=tuple(POLICY_RUNNERS))
    p_sim.add_argument("--pi", default=None,
                       help="target ratio for fixed (or initial ratio for anytime); "
                       "'auto' computes the optimal competitive ratio")
    p_sim.add_argument("--epsilon", type=parse_decimal, default=PolicyOptions.bisection_epsilon,
                       help="bisection tolerance for the anytime certifications")
    p_sim.add_argument("--threshold", type=parse_decimal, default=None,
                       help="purchase threshold for --algo thr")
    p_sim.add_argument("--ratio", type=parse_decimal, default=None,
                       help="per-slot discharge fraction for --algo eql-per")
    p_sim.add_argument("--window", type=ascii_int, default=None,
                       help="look-ahead window for the rhc algorithms (default ceil(T/4))")
    p_sim.set_defaults(func=_cmd_simulate)

    p_ing = sub.add_parser("ingest", help="convert a transaction trace to day profiles")
    p_ing.add_argument("--input", required=True, help="transaction CSV file")
    p_ing.add_argument("--output", required=True, help="day-profile JSON file to write")
    p_ing.add_argument("--slot-minutes", type=ascii_int, default=SlottingConfig.slot_minutes)
    p_ing.add_argument("--window-start", default=SlottingConfig.on_peak_start,
                       help="start of the on-peak window (HH:MM)")
    p_ing.add_argument("--window-end", default=SlottingConfig.on_peak_end,
                       help="end of the on-peak window (HH:MM, up to 24:00)")
    p_ing.add_argument("--scale", type=parse_decimal, default=SlottingConfig.scale_factor,
                       help="multiply every slot value by this factor")
    p_ing.add_argument("--d-lb", type=parse_decimal, default=None,
                       help="override the demand lower bound (with --d-ub)")
    p_ing.add_argument("--d-ub", type=parse_decimal, default=None,
                       help="override the demand upper bound (with --d-lb)")
    p_ing.set_defaults(func=_cmd_ingest)

    p_exp = sub.add_parser("experiment", help="run an experiment config file")
    p_exp.add_argument("--config", required=True,
                       help="JSON config: profiles path plus run options")
    p_exp.add_argument("--output-dir", required=True,
                       help="directory for report.txt and series.csv")
    p_exp.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PeakMinError, OSError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
