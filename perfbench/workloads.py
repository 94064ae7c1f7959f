"""The three workloads: seeded set-up, fixed timed work, output checks.

Each workload class has three steps. setup() builds the inputs from the seed
and warms up; run() does the fixed work, timing only calls into the program;
check() verifies every operation's output against an independent reference
and classifies it as passed or failed. Failures are counted, never raised:
a raise inside the program, a nonzero CLI exit and a failed output check all
count as one failed operation.

All program calls go through module attributes (pm.online.run_anytime, not a
name imported once), so the traced run's wrappers see them. Calls are timed
with calibration.clock(), which leaves out the calibration routine.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import calibration
import inputs
import reference

REL_TOL = 1e-9
PI_TOL = 1e-6  # absolute disagreement on pi* that counts as a wrong answer
# Share of --seconds each workload's timed work is sized to, in reference
# seconds (calibration.py); the rest covers the calibration routine, set-up
# and checks, which take longest on sweep_trace (set-up) and cr_t20 (the
# HiGHS reference).
FILL = {"sweep_trace": 0.8, "anytime_t10": 0.9, "cr_t20": 0.9}


@dataclass
class Outcome:
    """What one pass of a workload produced, after its checks."""

    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    items: int = 0                      # successful work items
    item_times: list = field(default_factory=list)
    quality_ratio: float = float("nan")
    failures: Counter = field(default_factory=Counter)
    failed_names: list = field(default_factory=list)
    invariant_errors: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)  # per-workload figures, printed only

    def fail(self, kind: str, name: str, count: int = 1) -> None:
        self.failed += count
        self.failures[kind] += count
        self.failed_names.append(f"{name}: {kind}")


# --------------------------------------------------------------------------
# sweep_trace: ingest + experiment through the CLI, baselines only, no LP


ROSTER = ("offline", "thr-offline-mean", "thr-mid", "eql-dis", "eql-per",
          "rhc-upper", "rhc-lower", "rhc-mid")
CHUNK_DAYS = 30
CHUNK_NOMINAL_S = 0.38  # ingest + experiment of one chunk, reference seconds


class SweepTrace:
    """Recorded-trace workflow: `peakmin ingest` then `peakmin experiment`.

    The work is a series of independent one-month traces ("chunks"). Each is
    ingested at the default 12:00-17:00 / 15-min window (T=20) and swept over
    the baseline roster at every capacity rate that validates against the
    ingested bounds. Items are policy-days.
    """

    name = "sweep_trace"
    horizon = 20

    def __init__(self, seed: int, seconds: float, workdir: Path):
        self.seed = seed
        self.chunks = max(1, round(FILL[self.name] * seconds / CHUNK_NOMINAL_S))
        self.workdir = workdir

    def setup(self, pm) -> None:
        self.csv_paths, self.txns = [], []
        for k in range(self.chunks):
            text = inputs.charging_trace_csv(
                int(np.random.default_rng([self.seed, k]).integers(2**31)), CHUNK_DAYS)
            path = self.workdir / f"trace{k}.csv"
            path.write_text(text, encoding="utf-8")
            self.csv_paths.append(path)
            self.txns.append(text.count("\n") - 1)
        warm = self.workdir / "warm.csv"
        text = inputs.charging_trace_csv(self.seed, 3)
        warm.write_text(text, encoding="utf-8")
        self.warm_txns = text.count("\n") - 1
        self._chunk(pm, warm, "warm")

    def _cli(self, pm, argv):
        out, err = io.StringIO(), io.StringIO()
        t0 = calibration.clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pm.cli.main(argv)
        return code, calibration.clock() - t0, out.getvalue() + err.getvalue()

    def _chunk(self, pm, csv_path: Path, tag: str) -> dict:
        days_json = self.workdir / f"days_{tag}.json"
        out_dir = self.workdir / f"out_{tag}"
        code, ingest_s, text = self._cli(
            pm, ["ingest", "--input", str(csv_path), "--output", str(days_json)])
        result = {"tag": tag, "ingest_code": code, "ingest_s": ingest_s,
                  "experiment_s": 0.0, "out_dir": out_dir, "days_json": days_json,
                  "log": text, "rates": ()}
        if code != 0:
            return result
        # rates that validate: c = rate * avg_daily_energy <= T * d_lb
        days = json.loads(days_json.read_text(encoding="utf-8"))
        limit = len(days["day_values"][0]) * days["demand_lb"]
        rates = [r for r in inputs.CAPACITY_RATES if r * days["avg_daily_energy"] <= limit]
        config = self.workdir / f"exp_{tag}.json"
        config.write_text(json.dumps({
            "profiles": days_json.name, "algorithms": list(ROSTER),
            "capacity_rates": rates}), encoding="utf-8")
        code, experiment_s, text = self._cli(
            pm, ["experiment", "--config", str(config), "--output-dir", str(out_dir)])
        result.update(experiment_code=code, experiment_s=experiment_s,
                      rates=tuple(rates), log=result["log"] + text)
        return result

    def run(self, pm) -> list:
        return [self._chunk(pm, path, str(k)) for k, path in enumerate(self.csv_paths)]

    def check(self, pm, results) -> Outcome:
        out = Outcome()
        out.wall_s = sum(r["ingest_s"] + r["experiment_s"] for r in results)
        finals = offline = 0.0
        expected_cells = CHUNK_DAYS * len(inputs.CAPACITY_RATES) * len(ROSTER)
        for r in results:
            name = f"chunk{r['tag']}"
            if r["ingest_code"] != 0 or r.get("experiment_code") != 0:
                out.attempted += expected_cells
                last = (r["log"].strip().splitlines() or ["no output"])[-1]
                out.fail(f"cli exit: {last[:80]}", name, expected_cells)
                continue
            days = json.loads(r["days_json"].read_text(encoding="utf-8"))
            values = np.asarray(days["day_values"], dtype=float)
            n_days = len(values)
            out.attempted += n_days * len(r["rates"]) * len(ROSTER)
            ok_days, f_sum, o_sum = self._check_report(r, values, out, name)
            finals += f_sum
            offline += o_sum
            out.items += ok_days
            if ok_days:
                out.item_times.append(r["experiment_s"] / (n_days * len(r["rates"]) * len(ROSTER)))
        out.quality_ratio = finals / offline if offline else float("nan")
        out.notes = {
            "policy_days_per_s": out.items / out.wall_s,
            "ingest_txn_per_s": sum(self.txns) / sum(r["ingest_s"] for r in results),
            "chunks": len(results),
            "transactions": sum(self.txns),
        }
        return out

    def _check_report(self, r, values, out: Outcome, name: str):
        """Check report.txt and series.csv of one chunk; returns
        (policy-days that passed, sum of online final peaks, sum of offline peaks)."""
        n_days = len(values)
        avg = float(values.sum(axis=1).mean())
        try:
            report = (r["out_dir"] / "report.txt").read_text(encoding="utf-8").splitlines()
            series = (r["out_dir"] / "series.csv").read_text(encoding="utf-8").splitlines()
            head = report[0].split()
            assert head[0] == f"days={n_days}" and head[1] == "horizon=20", head
            assert report[2] == ("capacity_rate,algorithm,mean_final_peak,std_final_peak,"
                                 "mean_usage_rate,performance_ratio")
            rows = [line.split(",") for line in report[3:]]
            assert series[0] == "axis_value,series,mean,stddev"
            srows = [line.split(",") for line in series[1:]]
            expected = [(rate, algo) for rate in r["rates"] for algo in ROSTER]
            assert [(float(x[0]), x[1]) for x in rows] == expected, "report rows"
            assert [(float(x[0]), x[1]) for x in srows] == expected, "series rows"
            cells = [(float(x[0]), x[1], *map(float, x[2:6])) for x in rows]
            scells = [(float(x[0]), x[1], float(x[2]), float(x[3])) for x in srows]
        except (OSError, AssertionError, IndexError, ValueError) as exc:
            out.fail(f"unparsable report ({exc})"[:80], name, n_days * len(r["rates"]) * len(ROSTER))
            return 0, 0.0, 0.0
        ok = 0
        f_sum = o_sum = 0.0
        offline_mean = {rate: float(reference.water_levels(values, rate * avg).mean())
                        for rate in r["rates"]}
        for (rate, algo, mean, std, usage, ratio), srow in zip(cells, scells):
            ref = offline_mean[rate]
            tol = 1e-6 * max(1.0, ref)  # report values carry six decimals
            problems = []
            if srow[2:] != (mean, std):
                problems.append("series disagrees with report")
            if not (0.0 < usage <= 1.0 + 1e-6) or ratio < 1.0 - 1e-6:
                problems.append("usage or ratio out of range")
            if algo == "offline" and abs(mean - ref) > tol:
                problems.append(f"offline mean {mean} != reference {ref:.6f}")
            if algo != "offline" and mean < ref - tol:
                problems.append("online mean below the offline optimum")
            if problems:
                out.fail(problems[0], f"{name} {algo}@{rate}", n_days)
                continue
            ok += n_days
            if algo != "offline":
                f_sum += mean * n_days
                o_sum += ref * n_days
        return ok, f_sum, o_sum


# --------------------------------------------------------------------------
# anytime_t10: the certified policies on T=10 days


DAY_NOMINAL_S = 3.45  # one day of the three policies, mean over rates, reference seconds
POLICIES = ("fixed", "anytime", "anytime-deplete")


class AnytimeT10:
    """Certified hot path: fixed, anytime and anytime-deplete per day.

    Day i runs at capacity rate ANYTIME_RATE_ORDER[i % 5] of the days' mean
    energy; pi* is computed once per rate in set-up, as run_experiment does.
    Items are policy-days; item times are those of the certified (anytime
    and anytime-deplete) days, the fixed policy's being a thousand times
    shorter.
    """

    name = "anytime_t10"
    horizon = 10

    def __init__(self, seed: int, seconds: float, workdir: Path):
        self.seed = seed
        self.num_days = max(1, round(FILL[self.name] * seconds / DAY_NOMINAL_S))

    def setup(self, pm) -> None:
        self.rows, self.rates = inputs.anytime_days(pm.harness, self.seed, self.num_days)
        energy = float(self.rows.sum(axis=1).mean())
        self.instances, self.pi = {}, {}
        for rate in sorted(set(self.rates)):
            inst = pm.core.validate_instance(rate * energy, None, 10, 100.0, 400.0)
            self.instances[rate] = inst
            self.pi[rate] = pm.cr.optimal_cr(inst).pi_star
        first = self.instances[self.rates[0]]
        pm.online.run_pcr_pmd(first, self.pi[self.rates[0]],
                              pm.core.DemandProfile(first, self.rows[0]))

    def run(self, pm) -> list:
        online, core = pm.online, pm.core
        results = []
        for i, (row, rate) in enumerate(zip(self.rows, self.rates)):
            inst, pi = self.instances[rate], self.pi[rate]
            for policy in POLICIES:
                t0 = calibration.clock()
                try:
                    prof = core.DemandProfile(inst, row)
                    if policy == "fixed":
                        run = online.run_pcr_pmd(inst, pi, prof)
                    else:
                        mode = (online.MODE_ANYTIME if policy == "anytime"
                                else online.MODE_ANYTIME_DEPLETING)
                        run = online.run_anytime(inst, prof, online.PolicyOptions(
                            mode=mode, initial_ratio=pi))
                except Exception as exc:  # counted as a failed operation
                    run = exc
                results.append((i, policy, calibration.clock() - t0, run))
        return results

    def check(self, pm, results) -> Outcome:
        out = Outcome()
        out.wall_s = sum(r[2] for r in results)
        offline = {}
        for i, (row, rate) in enumerate(zip(self.rows, self.rates)):
            inst = self.instances[rate]
            out.attempted += 1
            ref = float(reference.water_levels(row[None, :], inst.capacity_c)[0])
            try:
                peak = pm.offline.solve_offline_pmd(inst, pm.core.DemandProfile(inst, row)).peak
            except Exception as exc:
                out.fail(f"offline raised {type(exc).__name__}", f"day{i} offline")
                continue
            if abs(peak - ref) > REL_TOL * ref:
                out.fail("offline peak != reference water level", f"day{i} offline")
                continue
            offline[i] = peak
        anytime_times = []
        finals = offline_sum = 0.0
        for i, policy, seconds, run in results:
            out.attempted += 1
            name = f"day{i} {policy}@{self.rates[i]}"
            if isinstance(run, Exception):
                out.fail(f"raised {type(run).__name__}", name)
                continue
            if i not in offline:
                out.fail("no verified offline peak", name)
                continue
            ratio = self.pi[self.rates[i]] if policy == "fixed" else float(run.ratio_trajectory[-1])
            if run.final_peak > ratio * offline[i] * (1 + REL_TOL):
                out.fail("final peak above the certified ratio", name)
                continue
            if policy == "fixed" and run.clamp_engaged:
                out.fail("fixed policy clamp engaged", name)
                continue
            out.items += 1
            if policy != "fixed":
                out.item_times.append(seconds)
            if policy == "anytime":
                anytime_times.append(seconds)
                finals += run.final_peak
                offline_sum += offline[i]
        out.quality_ratio = finals / offline_sum if offline_sum else float("nan")
        out.notes = {
            "policy_days_per_s": out.items / out.wall_s,
            "anytime_day_p50_s": statistics.median(anytime_times) if anytime_times else None,
            "anytime_days": len(anytime_times),
            "anytime_perf_ratio": out.quality_ratio,
        }
        return out


# --------------------------------------------------------------------------
# cr_t20: optimal_cr on the fixed T=20 census


class CrT20:
    """optimal_cr on the T=20 census, checked against HiGHS.

    Items are optimal_cr calls that returned a pi* within PI_TOL of the
    reference. Item times are those of every call, failed or not: a call
    that raises has spent its time all the same, and a fix that turns a
    failure into a success must not read as a slower item.
    """

    name = "cr_t20"
    horizon = 20

    def __init__(self, seed: int, seconds: float, workdir: Path):
        self.seconds = seconds
        self._reference = None

    def setup(self, pm) -> None:
        self.cells, census_txns = inputs.cr_census(pm.harness, FILL[self.name] * self.seconds)
        self.txns = [census_txns]
        self.instances = [
            pm.core.validate_instance(c.capacity_c, c.rate_limit, 20, c.demand_lb, c.demand_ub)
            for c in self.cells
        ]
        pm.cr.optimal_cr(pm.core.validate_instance(630.0, None, 4, 300.0, 600.0))

    def reference(self, pm) -> list:
        """HiGHS pi* per cell, outside set-up and timing; the census is the same
        on every set-up, so it is computed once per process."""
        if self._reference is None:
            self._reference = [reference.highs_pi_star(pm.cr, inst) for inst in self.instances]
        return self._reference

    def run(self, pm) -> list:
        results = []
        for inst in self.instances:
            t0 = calibration.clock()
            try:
                got = pm.cr.optimal_cr(inst).pi_star
            except Exception as exc:  # counted as a failed operation
                got = exc
            results.append((calibration.clock() - t0, got))
        return results

    def check(self, pm, results) -> Outcome:
        out = Outcome()
        out.wall_s = sum(r[0] for r in results)
        error = ref_sum = 0.0
        ok_times = []
        for cell, ref, (seconds, got) in zip(self.cells, self.reference(pm), results):
            out.attempted += 1
            out.item_times.append(seconds)
            if isinstance(got, Exception):
                out.fail(f"raised {type(got).__name__}", cell.name)
                continue
            error += abs(got - ref)
            ref_sum += ref
            if abs(got - ref) > PI_TOL:
                out.fail("wrong pi* against HiGHS", f"{cell.name} ({got:.6f} vs {ref:.6f})")
                continue
            out.items += 1
            ok_times.append(seconds)
        out.quality_ratio = 1.0 + error / ref_sum if ref_sum else float("nan")
        out.notes = {
            "cr_p50_s": statistics.median(ok_times) if ok_times else None,
            "cr_calls_ok": len(ok_times),
            "census": [c.name for c in self.cells],
        }
        return out


WORKLOADS = {cls.name: cls for cls in (SweepTrace, AnytimeT10, CrT20)}
