"""Figure 10: evolution of OFC's total cache size over time (§7.2.2).

The paper plots the cluster-wide cache size while FaaSLoad drives the
normal-profile tenants: the cache grabs most of the free memory and
"breathes" as sandbox churn forces scale-downs and re-growth.

Each profile is an independent macro simulation, so sweeping several
profiles fans out across the parallel runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.bench.macro import run_macro
from repro.bench.runner import run_grid
from repro.sim.latency import GB
from repro.workloads.faasload import TenantProfile


#: The tenant profiles Figure 10 compares.
PROFILES = ("NORMAL", "NAIVE", "ADVANCED")


@dataclass
class Fig10Series:
    profile: str
    duration_s: float
    #: (sim seconds, total cache bytes) samples.
    series: List[Tuple[float, int]]
    hit_ratio: float


def per_minute(series: Sequence[Tuple[float, int]]) -> List[Tuple[float, float]]:
    """Downsample (sim seconds, cache bytes) samples to (minute, cache
    GB) rows for reporting."""
    rows: List[Tuple[float, float]] = []
    next_minute = 0.0
    for t, size in series:
        if t >= next_minute:
            rows.append((round(t / 60.0, 1), size / GB))
            next_minute = t + 60.0
    return rows


def _fig10_cell(cell) -> Fig10Series:
    """One profile's cache-size trajectory; module-level for pickling."""
    profile_name, duration_s, seed = cell
    profile = TenantProfile[profile_name]
    result = run_macro("ofc", profile, duration_s=duration_s, seed=seed)
    return Fig10Series(
        profile=profile_name,
        duration_s=duration_s,
        series=list(result.cache_series),
        hit_ratio=result.hit_ratio,
    )


def run_fig10(
    duration_s: float = 900.0, seed: int = 0, workers: Optional[int] = None
) -> List[Fig10Series]:
    """Cache-size-over-time series for each of :data:`PROFILES`."""
    cells = [(profile, duration_s, seed) for profile in PROFILES]
    return run_grid(_fig10_cell, cells, workers=workers)
