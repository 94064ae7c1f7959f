"""Outside-in span tracing for the traced run.

The tracer replaces public functions on the module attributes that callers
look up at call time (for example peakmin.online.solve_lp, which online.py
imported from lp.py) with wrappers that record one span per call: name,
parent span, start and end. Spans stay in memory and are written out when
the run ends. Nothing under src/ changes; removing the wrappers restores the
original functions.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, attribute, span name). Every module that imports a function gets
# its own entry, because "from .lp import solve_lp" binds a separate name.
WRAPPED = (
    ("peakmin.lp", "solve_lp", "lp.solve_lp"),
    ("peakmin.online", "solve_lp", "lp.solve_lp"),
    ("peakmin.lp", "solve_lfp", "lp.solve_lfp"),
    ("peakmin.cr", "solve_lfp", "lp.solve_lfp"),
    ("peakmin.cr", "optimal_cr", "cr.optimal_cr"),
    ("peakmin.online", "optimal_cr", "cr.optimal_cr"),
    ("peakmin.harness", "optimal_cr", "cr.optimal_cr"),
    ("peakmin.cli", "optimal_cr", "cr.optimal_cr"),
    ("peakmin.online", "run_pcr_pmd", "online.run_pcr_pmd"),
    ("peakmin.harness", "run_pcr_pmd", "online.run_pcr_pmd"),
    ("peakmin.cli", "run_pcr_pmd", "online.run_pcr_pmd"),
    ("peakmin.online", "run_anytime", "online.run_anytime"),
    ("peakmin.harness", "run_anytime", "online.run_anytime"),
    ("peakmin.cli", "run_anytime", "online.run_anytime"),
    ("peakmin.offline", "water_fill_threshold", "offline.water_fill_threshold"),
    ("peakmin.baselines", "water_fill_threshold", "offline.water_fill_threshold"),
    ("peakmin.offline", "offline_peak_values", "offline.offline_peak_values"),
    ("peakmin.online", "offline_peak_values", "offline.offline_peak_values"),
    ("peakmin.cr", "offline_peak_values", "offline.offline_peak_values"),
    ("peakmin.offline", "solve_offline_pmd", "offline.solve_offline_pmd"),
    ("peakmin.harness", "solve_offline_pmd", "offline.solve_offline_pmd"),
    ("peakmin.cli", "solve_offline_pmd", "offline.solve_offline_pmd"),
    ("peakmin.baselines", "run_threshold", "baselines.run_threshold"),
    ("peakmin.harness", "run_threshold", "baselines.run_threshold"),
    ("peakmin.baselines", "run_equal_discharge", "baselines.run_equal_discharge"),
    ("peakmin.harness", "run_equal_discharge", "baselines.run_equal_discharge"),
    ("peakmin.baselines", "run_equal_ratio", "baselines.run_equal_ratio"),
    ("peakmin.harness", "run_equal_ratio", "baselines.run_equal_ratio"),
    ("peakmin.baselines", "run_rhc", "baselines.run_rhc"),
    ("peakmin.harness", "run_rhc", "baselines.run_rhc"),
    ("peakmin.harness", "parse_transactions", "harness.parse_transactions"),
    ("peakmin.harness", "load_transactions", "harness.load_transactions"),
    ("peakmin.cli", "load_transactions", "harness.load_transactions"),
    ("peakmin.harness", "ingest_trace", "harness.ingest_trace"),
    ("peakmin.cli", "ingest_trace", "harness.ingest_trace"),
    ("peakmin.harness", "run_experiment", "harness.run_experiment"),
    ("peakmin.cli", "run_experiment", "harness.run_experiment"),
    ("peakmin.harness", "load_profile_set", "harness.load_profile_set"),
    ("peakmin.cli", "load_profile_set", "harness.load_profile_set"),
    ("peakmin.harness", "save_profile_set", "harness.save_profile_set"),
    ("peakmin.cli", "save_profile_set", "harness.save_profile_set"),
    ("peakmin.cli", "main", "cli.main"),
)

# Constructors that validate their input; wrapped on the class itself, so
# every module that builds one is covered.
WRAPPED_INIT = (
    ("peakmin.core", "DemandProfile", "core.DemandProfile"),
    ("peakmin.core", "DischargeSchedule", "core.DischargeSchedule"),
)


def check_wrapped_names() -> None:
    """Fail loudly if a refactor removed or renamed a wrapped attribute."""
    missing = []
    for module, attr, _ in WRAPPED + WRAPPED_INIT:
        if not callable(getattr(importlib.import_module(module), attr, None)):
            missing.append(f"{module}.{attr}")
    if missing:
        raise SystemExit("perfbench: wrapped names missing: " + ", ".join(missing))


class Tracer:
    """Span recorder. Single-threaded: the open spans form one stack."""

    def __init__(self):
        self.names: list[str] = []
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.stack: list[int] = []
        self.lp_max_residual = 0.0
        self.lp_nonoptimal = 0
        self.raised: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self.stack)
        clock = time.perf_counter_ns
        inspect = self._inspect_lp if name == "lp.solve_lp" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
            if inspect is not None:
                inspect(result)
            return result

        return wrapper

    def _inspect_lp(self, result) -> None:
        if result.status != "optimal":
            self.lp_nonoptimal += 1
        self.lp_max_residual = max(self.lp_max_residual, float(result.residual))

    def install(self) -> None:
        check_wrapped_names()
        for module, attr, name in WRAPPED:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            self._undo.append((mod, attr, original))
            setattr(mod, attr, self._wrap(name, original))
        for module, cls_name, name in WRAPPED_INIT:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__init__
            self._undo.append((cls, "__init__", original))
            cls.__init__ = self._wrap(name, original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def totals(self):
        """Per span name: call count, total ns and self ns."""
        child = [0] * len(self.names)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[sid] - self.starts[sid]
        calls = defaultdict(int)
        total = defaultdict(int)
        own = defaultdict(int)
        for sid, name in enumerate(self.names):
            dur = self.ends[sid] - self.starts[sid]
            calls[name] += 1
            total[name] += dur
            own[name] += dur - child[sid]
        return calls, total, own

    def under(self, ancestor: str, name: str) -> tuple[int, int]:
        """Calls and total ns of `name` spans with an `ancestor` span above them."""
        inside = [False] * len(self.names)
        calls = total = 0
        for sid, parent in enumerate(self.parents):
            inside[sid] = parent >= 0 and (inside[parent] or self.names[parent] == ancestor)
            if inside[sid] and self.names[sid] == name:
                calls += 1
                total += self.ends[sid] - self.starts[sid]
        return calls, total

    def write(self, path) -> None:
        """Spans as parallel arrays: span i has name names[name[i]], parent
        span parent[i] (-1 at the top) and start[i]..end[i] in ns."""
        table = sorted(set(self.names))
        code = {name: k for k, name in enumerate(table)}
        np.savez_compressed(
            path, names=np.array(table), name=np.array([code[n] for n in self.names]),
            parent=np.array(self.parents), start=np.array(self.starts), end=np.array(self.ends),
        )
