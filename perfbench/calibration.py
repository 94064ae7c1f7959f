"""Host-speed calibration: times in reference seconds.

The benchmark runs on shared hosts whose speed drifts by 20-40% within a
minute, far more than the changes it is meant to show. So while a phase of
the run is measured (set-up, then the timed work), an interval timer
interrupts the program every PERIOD seconds and runs a fixed reference
routine: pure Python and numpy on small and large arrays, no peakmin code.
clock() is perf_counter() minus the time spent in the routine, so program
times exclude it. scale(phase) is REF_S over the mean routine time of that
phase, and a time t measured in the phase is reported as t * scale(phase):
the seconds it would have taken on a host that runs the routine in REF_S.
Sampling on a timer spreads the routine evenly over the phase, also through
calls that last seconds. The routine does not change with the program, so a
faster program still shows as fewer reference seconds.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REF_S = 0.07   # about the routine's time on the 2-vCPU Xeon it was sized on
PERIOD = 0.3   # seconds between routine runs, so about a fifth of the time

_samples: dict[str, list[float]] = {}
_phase = ""
_stolen = 0.0
_busy = False


def routine() -> float:
    """One run of the reference work; returns its seconds."""
    t0 = time.perf_counter()
    counts: dict[str, float] = {}
    total = 0.0
    for i in range(30000):
        key = f"{i % 977}:{i * 7 % 13}"
        counts[key] = counts.get(key, 0.0) + i * 0.5
        total += float(key.split(":")[1])
    rows = [[float(j), float(j * j % 1013)] for j in range(5000)]
    rows.sort(key=lambda r: (-r[1], r[0]))
    small = np.linspace(0.0, 1.0, 24 * 48).reshape(24, 48)
    level = np.arange(48.0)
    for i in range(1200):
        p = i % 24
        small -= np.outer(small[:, p] * 1e-3, small[p])
        total += float(np.minimum(level, i * 0.05).sum())
    large = np.linspace(0.0, 1.0, 250 * 500).reshape(250, 500)
    for i in range(20):
        large -= np.outer(large[:, i] * 1e-3, large[i])
    if not np.isfinite(total + small.sum() + large.sum()):
        raise RuntimeError("calibration routine lost its values")
    return time.perf_counter() - t0


def _tick(signum, frame) -> None:
    global _stolen, _busy
    if _busy:  # a late tick while the routine still runs
        return
    _busy = True
    t0 = time.perf_counter()
    try:
        _samples[_phase].append(routine())
    finally:
        _stolen += time.perf_counter() - t0
        _busy = False


def start(phase: str) -> None:
    """Sample the routine on a timer, filed under `phase`, until stop()."""
    global _phase
    _phase = phase
    _samples.setdefault(phase, [])
    signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def clock() -> float:
    """perf_counter() without the time the routine has taken."""
    return time.perf_counter() - _stolen


def scale(phase: str) -> float:
    """Reference seconds per measured second of `phase`. A phase shorter
    than PERIOD gets one routine run at its end."""
    if not _samples.get(phase):
        _samples.setdefault(phase, []).append(routine())
    return REF_S / statistics.fmean(_samples[phase])


def samples(phase: str) -> int:
    return len(_samples.get(phase, ()))
