"""Availability experiment: hit-ratio degradation and recovery under
injected faults (fault-tolerance companion to the macro runs).

A small FaaSLoad workload runs against a full OFC deployment while a
:class:`~repro.faults.FaultSchedule` crashes and restarts cache nodes
(or degrades the RSDS).  A sampler process records the windowed cache
hit ratio, the number of live cache servers and the size of the
under-replicated set, so the timeline shows the dip when a node dies
and the recovery once the injector's repair pass completes.

The no-fault cell runs the identical workload with no injector wired
in, giving the baseline the faulted timeline is compared against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.bench.envs import build_ofc_env
from repro.bench.runner import cell_seed, run_grid
from repro.faults import FaultEvent, FaultSchedule
from repro.sim.latency import KB
from repro.workloads.faasload import FaaSLoad, TenantProfile, TenantSpec

#: Single-stage workloads used for the availability runs (kept small so
#: the experiment turns around quickly; pipelines are covered by the
#: crash-consistency tests).
AVAILABILITY_WORKLOADS = ["wand_blur", "wand_sepia", "wand_resize"]


@dataclass
class AvailabilityPoint:
    """One sampling window."""

    t: float
    hit_ratio: Optional[float]  # None when the window saw no reads
    live_servers: int
    under_replicated: int


@dataclass
class AvailabilityResult:
    scenario: str
    points: List[AvailabilityPoint] = field(default_factory=list)
    completed: int = 0
    failed: int = 0
    final_hit_ratio: float = 0.0
    lost_objects: int = 0
    recovered_objects: int = 0
    repaired_keys: int = 0
    backups_purged: int = 0
    #: Dirty (unpersisted) cached objects left after the final drain —
    #: must be zero for final outputs (no lost write-backs).
    dirty_final_at_end: int = 0
    injector_snapshot: Optional[Dict[str, Any]] = None

    @property
    def min_windowed_hit_ratio(self) -> Optional[float]:
        ratios = [p.hit_ratio for p in self.points if p.hit_ratio is not None]
        return min(ratios) if ratios else None


def _tenant_specs(seed_sizes: List[int]) -> List[TenantSpec]:
    return [
        TenantSpec(
            tenant_id=f"tenant-{workload}",
            workload=workload,
            profile=TenantProfile.NORMAL,
            mean_interval_s=4.0,
            arrival="exponential",
            input_sizes=list(seed_sizes),
            n_inputs=len(seed_sizes),
        )
        for workload in AVAILABILITY_WORKLOADS
    ]


def _sampler(
    ofc,
    points: List[AvailabilityPoint],
    window_s: float,
    deadline: float,
    schedule_end: float,
):
    """Record windowed availability gauges until ``deadline`` and, past
    it, until one window has closed at or after ``schedule_end``: a
    schedule may outlast the load, and the timeline must show its last
    effect."""
    prev_hits = 0
    prev_total = 0
    while (
        ofc.kernel.now + window_s <= deadline
        or ofc.kernel.now < schedule_end
    ):
        yield window_s
        stats = ofc.rclib_stats
        hits = stats.hits_local + stats.hits_remote
        total = hits + stats.misses
        d_hits = hits - prev_hits
        d_total = total - prev_total
        prev_hits, prev_total = hits, total
        snap = ofc.backend.stats_snapshot()
        points.append(
            AvailabilityPoint(
                t=ofc.kernel.now,
                hit_ratio=(d_hits / d_total) if d_total else None,
                live_servers=snap["live_servers"],
                under_replicated=snap["under_replicated"],
            )
        )


def run_availability(
    scenario: str = "baseline",
    schedule: Optional[FaultSchedule] = None,
    duration_s: float = 240.0,
    nodes: int = 4,
    node_mb: float = 4096.0,
    seed: int = 0,
    window_s: float = 15.0,
) -> AvailabilityResult:
    """One availability run; ``schedule=None`` is the no-fault baseline."""
    ofc = build_ofc_env(nodes=nodes, node_mb=node_mb, seed=seed)
    injector = None
    if schedule is not None:
        from repro.faults import FaultInjector

        injector = FaultInjector(ofc, schedule)
        injector.start()

    faasload = FaaSLoad(
        ofc.kernel, ofc.platform, ofc.store, rng=np.random.default_rng(seed)
    )
    faasload.prepare(_tenant_specs([16 * KB, 64 * KB, 256 * KB]))

    result = AvailabilityResult(scenario=scenario)
    deadline = ofc.kernel.now + duration_s
    schedule_end = schedule.duration if schedule is not None else 0.0
    ofc.kernel.process(
        _sampler(ofc, result.points, window_s, deadline, schedule_end),
        name="avail-sampler",
    )
    runtimes = faasload.run(duration_s)
    # Settle in-flight background work (persistors, recovery, repair)
    # so the end-of-run consistency audit sees the settled state.  The
    # kernel queue never drains on its own — the cache agents run
    # periodic loops — so the settle window is bounded: past the end of
    # the fault schedule plus enough slack for the persistor's full
    # retry backoff (~12 s) and a final eviction sweep.
    settle_until = max(ofc.kernel.now, schedule_end) + 30.0
    ofc.kernel.run(until=settle_until)

    for runtime in runtimes.values():
        result.completed += sum(1 for r in runtime.records if r.status == "ok")
        result.failed += sum(1 for r in runtime.records if r.status != "ok")
    result.final_hit_ratio = ofc.rclib_stats.hit_ratio
    if ofc.cluster is not None:
        result.lost_objects = ofc.cluster.stats.lost_objects
        result.backups_purged = ofc.cluster.stats.backups_purged
    else:
        snap = ofc.backend.stats_snapshot()
        result.lost_objects = snap.get(
            "lost_objects", snap.get("objects_lost", 0)
        )
    result.dirty_final_at_end = count_dirty_finals(ofc)
    if injector is not None:
        result.recovered_objects = injector.stats.recovered_objects
        result.repaired_keys = injector.stats.repaired_keys
        result.injector_snapshot = injector.snapshot()
    return result


def count_dirty_finals(ofc) -> int:
    """Final (non-intermediate) cached objects still marked dirty.

    After a full drain every final output must either have been
    persisted (dirty cleared) or still sit dirty in the cache with a
    persist pending — zero of the latter once the queue is empty, or a
    write-back was lost.
    """
    count = 0
    for _node, obj in ofc.backend.objects():
        if obj.flags.get("dirty", False) and obj.flags.get("final", False):
            count += 1
    return count


def crash_restart_schedule(
    duration_s: float, node: str = "w1"
) -> FaultSchedule:
    """The canonical availability scenario: one node dies mid-run and
    returns after a third of the run."""
    return FaultSchedule(
        [
            FaultEvent(at=duration_s / 3.0, kind="crash", node=node),
            FaultEvent(at=2.0 * duration_s / 3.0, kind="restart", node=node),
        ]
    )


def _availability_cell(cell) -> AvailabilityResult:
    """One availability run as a runner cell; module-level for pickling."""
    scenario, schedule_dict, duration_s, nodes, base_seed, window_s = cell
    schedule = (
        FaultSchedule.from_dict(schedule_dict) if schedule_dict else None
    )
    return run_availability(
        scenario=scenario,
        schedule=schedule,
        duration_s=duration_s,
        nodes=nodes,
        seed=cell_seed(base_seed, "availability", scenario),
        window_s=window_s,
    )


def run_fault_availability(
    duration_s: float = 240.0,
    nodes: int = 4,
    seed: int = 0,
    window_s: float = 15.0,
    workers: Optional[int] = None,
) -> Tuple[AvailabilityResult, AvailabilityResult]:
    """Baseline vs crash-restart availability comparison.

    Returns ``(baseline, faulted)``; the cells fan out across
    ``workers`` processes like every other sweep.
    """
    schedule = crash_restart_schedule(duration_s)
    cells = [
        ("baseline", None, duration_s, nodes, seed, window_s),
        ("crash-restart", schedule.to_dict(), duration_s, nodes, seed, window_s),
    ]
    baseline, faulted = run_grid(_availability_cell, cells, workers=workers)
    return baseline, faulted
