"""Seeded input generators for the three workloads.

Everything here is a pure function of its arguments: the same seed gives the
same CSV text, day set or instance list. The program under test only ever
sees these generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

CAPACITY_RATES = (0.1, 0.2, 0.3, 0.4, 0.5)
TRACE_HEADER = "start_iso8601,duration_min,energy_kwh"


def charging_trace_csv(seed: int, num_days: int, start: str = "2024-01-01",
                       fleet: int = 40, walk_ins: int = 80) -> str:
    """Synthetic workplace charging trace, about fleet + walk_ins sessions a day.

    A fixed fleet arrives between 07:00 and 11:45, charges at 3-7 kW and
    leaves after 17:15, so it covers the whole 12:00-17:00 window and sets a
    steady floor. A Poisson number of walk-in sessions arrive between 09:00
    and 19:00 for 30-150 minutes at 7-22 kW and make the slots volatile. With
    these defaults the ingested lower bound sits near 0.6 of the mean slot
    value, so every capacity rate in CAPACITY_RATES validates.
    """
    rng = np.random.default_rng(seed)
    first = date.fromisoformat(start)
    lines = [TRACE_HEADER]
    for i in range(num_days):
        day = (first + timedelta(days=i)).isoformat()
        n_walk = int(rng.poisson(walk_ins))
        arrive = np.concatenate([
            rng.uniform(7 * 60, 11.75 * 60, fleet),
            rng.uniform(9 * 60, 19 * 60, n_walk),
        ])
        stay = np.concatenate([
            17.25 * 60 - arrive[:fleet] + rng.uniform(0, 120, fleet),
            rng.uniform(30, 150, n_walk),
        ])
        kw = np.concatenate([rng.uniform(3, 7, fleet), rng.uniform(7, 22, n_walk)])
        order = np.argsort(arrive, kind="stable")
        secs = (arrive[order] * 60).astype(int).tolist()
        energy = (kw * stay / 60)[order].tolist()
        for sec, minutes, kwh in zip(secs, stay[order].tolist(), energy):
            lines.append(
                f"{day}T{sec // 3600:02d}:{sec // 60 % 60:02d}:{sec % 60:02d},"
                f"{minutes:.2f},{kwh:.4f}"
            )
    return "\n".join(lines) + "\n"


ANYTIME_RATE_ORDER = (0.3, 0.1, 0.5, 0.2, 0.4)
# synthetic_volatile_profiles shares that force one day kind each
DAY_KINDS = (
    ("calm", {"calm_share": 1.0, "surge_share": 0.0}),
    ("moderate-surge", {"calm_share": 0.0, "surge_share": 1.0}),
    ("ceiling-surge", {"calm_share": 0.0, "surge_share": 0.0}),
)


def anytime_days(harness, seed: int, num_days: int):
    """T=10 volatile days (100-400 kWh) with the capacity rate of each.

    Day i is of kind DAY_KINDS[i % 3] and runs at ANYTIME_RATE_ORDER[i % 5],
    so the mix of day kinds and rates is the same for every seed and only the
    demands inside each kind change. The certified policies' cost per day
    depends mostly on the rate, and the ratio they reach on the kind; fixing
    the mix keeps both steady from seed to seed. The order starts at the
    middle rate, so with 8 days the median day cost is the mean of the two
    rate-0.3 days rather than the edge of a cluster.
    """
    pools = [
        iter(harness.synthetic_volatile_profiles(
            (num_days + 2) // 3, 10, 100.0, 400.0,
            seed=int(np.random.default_rng([seed, k]).integers(2**31)), **shares,
        ).values())
        for k, (_, shares) in enumerate(DAY_KINDS)
    ]
    rows = np.array([next(pools[i % 3]) for i in range(num_days)])
    rates = [ANYTIME_RATE_ORDER[i % len(ANYTIME_RATE_ORDER)] for i in range(num_days)]
    return rows, rates


@dataclass(frozen=True)
class CrCell:
    """One optimal_cr instance of the T=20 census."""

    name: str
    capacity_c: float
    rate_limit: float | None
    demand_lb: float
    demand_ub: float
    nominal_s: float  # measured cost in reference seconds, used only for sizing


# Census sources. The volatile set is the T=20 reference day set of the
# roadmap (10 days, seed 7); the ingested set is 90 days of the charging
# trace above with trace seed 20. optimal_cr's failures flip with tiny
# changes of c, so these sources are fixed rather than drawn from --seed:
# a per-seed census would make the failure share differ between seeds.
VOLATILE_SEED = 7
INGEST_TRACE_SEED = 20
INGEST_TRACE_DAYS = 90
RATE_LIMIT_KWH = 100.0


def cr_census(harness, budget_s: float) -> tuple[list[CrCell], int]:
    """T=20 census in priority order, cut to fit the run length, plus the
    number of transactions ingested to build it.

    The first three cells hold one instance of each known optimal_cr defect
    kind (raised DemandOutOfBounds, raised NumericalFailure, silently wrong
    pi* with a rate limit) and the fourth a cheap correct one, so these four
    are always kept; the rest are added, in order, while their nominal cost
    fits budget_s. Cells that show a defect kind again come before the rest.
    """
    vol = harness.synthetic_volatile_profiles(10, 20, 100.0, 400.0, seed=VOLATILE_SEED)
    trace = charging_trace_csv(INGEST_TRACE_SEED, INGEST_TRACE_DAYS)
    ing = harness.ingest_trace(harness.parse_transactions(trace))

    def vol_cell(rate, limit, nominal):
        tag = "vol" if limit is None else "vol-rl"
        return CrCell(f"{tag}@{rate}", rate * vol.avg_daily_energy, limit,
                      vol.demand_lb, vol.demand_ub, nominal)

    def ing_cell(rate, nominal):
        return CrCell(f"ing@{rate}", rate * ing.avg_daily_energy, None,
                      ing.demand_lb, ing.demand_ub, nominal)

    # The comments give optimal_cr's outcome when this census was fixed.
    ordered = [
        vol_cell(0.2, None, 1.5),             # raises DemandOutOfBounds
        ing_cell(0.3, 5.5),                   # raises NumericalFailure
        vol_cell(0.3, RATE_LIMIT_KWH, 9.3),   # returns pi* below HiGHS
        vol_cell(0.1, None, 0.5),
        vol_cell(0.3, None, 1.8),             # raises DemandOutOfBounds
        ing_cell(0.1, 1.0),
        vol_cell(0.4, None, 1.9),
        ing_cell(0.4, 1.4),
        vol_cell(0.5, None, 1.9),
        ing_cell(0.5, 1.4),
        vol_cell(0.1, RATE_LIMIT_KWH, 6.3),   # returns pi* above HiGHS
        vol_cell(0.2, RATE_LIMIT_KWH, 6.0),   # returns pi* above HiGHS
        ing_cell(0.2, 14.3),                  # raises NumericalFailure
    ]
    cells, spent = [], 0.0
    for k, cell in enumerate(ordered):
        if k < 4 or spent + cell.nominal_s <= budget_s:
            cells.append(cell)
            spent += cell.nominal_s
    return cells, trace.count("\n") - 1
