"""``repro chaos`` — randomized fault fuzzing with history checking.

Each cell runs one seeded multi-tenant workload (the streaming engine
from :mod:`repro.workloads.tenants`) against one cache backend while a
:func:`~repro.faults.chaos.chaos_schedule` fault timeline crashes
nodes and degrades the RSDS/network at a graded intensity.  A
:class:`~repro.checks.HistoryRecorder` captures the complete dataclient
history; after the run settles, :func:`~repro.checks.check_history`
audits it — acked-write durability, stale/shadow reads, read-your-
writes, version order, dirty finals and the replication level.

The grid sweeps backend × fault intensity × tenant-quota policy.  Every
cell is deterministic in its seed (schedule times are absolute sim
times, so a generated schedule replays exactly); a failing cell is
shrunk with :func:`~repro.faults.chaos.shrink_schedule` and the minimal
schedule exported as runnable JSON (``repro run --faults <file>``)
under ``examples/faults/``.

The grid is exported as a repro-obs document to
``results/chaos_grid.json``; ``repro chaos`` exits nonzero on any
invariant violation.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.bench.envs import build_ofc_env
from repro.bench.runner import cell_seed, run_grid
from repro.cache import BACKENDS
from repro.checks import HistoryRecorder, check_history
from repro.checks.invariants import count_by_invariant
from repro.core.config import OFCConfig
from repro.faults import FaultInjector, FaultSchedule
from repro.faults.chaos import chaos_schedule, chaos_targets, shrink_schedule
from repro.obs.export import export_json
from repro.obs.registry import MetricsRegistry
from repro.workloads.tenants import TenantLoadEngine, TenantWorkloadConfig

#: Backends every sweep fuzzes, in a stable order.
BACKEND_NAMES = tuple(sorted(BACKENDS))

CELL_NODES = 4
CELL_NODE_MB = 4096.0
CELL_KEEPALIVE_S = 8.0
#: Slack past the schedule's end before the end-state audit: covers the
#: persistor's full retry backoff plus requeue cycles, one InfiniCache
#: reclaim tick and a repair pass.
SETTLE_SLACK_S = 45.0
#: Where minimized reproducers land by default.
DEFAULT_REPRODUCER_DIR = "examples/faults"


@dataclass(frozen=True)
class ChaosCell:
    """One (backend, intensity, quota policy) fuzzing run."""

    backend: str
    intensity: str
    quota_policy: str
    n_tenants: int
    mean_interval_s: float
    duration_s: float
    seed: int
    warmup_s: float = 30.0
    #: Optional explicit schedule (replay/shrink probes); None =
    #: generate from the seed after warmup.
    schedule: Optional[Dict[str, Any]] = None
    #: Extra OFCConfig attributes — lets regression tests fuzz the
    #: pre-fix modes (``faast_replication=False`` etc.).
    config_overrides: Optional[Dict[str, Any]] = None


@dataclass
class ChaosCellResult:
    """Outcome of one fuzzing cell."""

    backend: str
    intensity: str
    quota_policy: str
    seed: int
    duration_s: float
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    ops: int = 0
    crashes: int = 0
    episodes: int = 0
    schedule_events: int = 0
    violations_total: int = 0
    #: invariant name -> count.
    violations: Dict[str, int] = field(default_factory=dict)
    #: First few violations, for the table/export (full list lives on
    #: the recorder during the run).
    violation_details: List[Dict[str, Any]] = field(default_factory=list)
    #: The exact schedule the cell ran (replayable).
    schedule: Dict[str, Any] = field(default_factory=dict)
    #: ``LogStats`` summed over the cache servers' master logs (empty on
    #: backends without one): pins *what* the cleaner did, which the
    #: op history cannot see.
    log_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def cell_id(self) -> str:
        return f"{self.backend}-{self.intensity}-{self.quota_policy}"


def _log_stats(backend) -> Dict[str, int]:
    cluster = getattr(backend, "cluster", None)
    if cluster is None:
        return {}
    totals: Dict[str, int] = {}
    for server in cluster.coordinator.servers.values():
        for name, value in asdict(server.log.stats).items():
            totals[name] = totals.get(name, 0) + value
    return totals


def run_chaos_cell(cell: ChaosCell) -> ChaosCellResult:
    """One independent deployment, fuzzed and audited (module-level:
    the sweep runner pickles this into worker processes)."""
    from repro.faas import reset_id_counters

    reset_id_counters()
    config = OFCConfig(
        cache_backend=cell.backend,
        tenant_quota_policy=cell.quota_policy,
    )
    for attr, value in (cell.config_overrides or {}).items():
        setattr(config, attr, value)
    ofc = build_ofc_env(
        nodes=CELL_NODES,
        node_mb=CELL_NODE_MB,
        seed=cell.seed,
        config=config,
        keepalive_s=CELL_KEEPALIVE_S,
    )
    recorder = HistoryRecorder(ofc)
    workload = TenantWorkloadConfig(
        n_tenants=cell.n_tenants,
        mean_interval_s=cell.mean_interval_s,
        seed=cell.seed,
    )
    engine = TenantLoadEngine(ofc.kernel, ofc.platform, ofc.store, workload)
    if cell.warmup_s > 0:
        # Warm the cache so chaos_targets() sees real placements.
        engine.run(cell.warmup_s)
    if cell.schedule is not None:
        schedule = FaultSchedule.from_dict(cell.schedule)
    else:
        schedule = chaos_schedule(
            cell.seed,
            cell.duration_s,
            ofc.backend.node_ids,
            intensity=cell.intensity,
            targets=chaos_targets(ofc.backend),
            start_at=ofc.kernel.now,
        )
    injector = FaultInjector(ofc, schedule)
    injector.start()
    stats = engine.run(cell.duration_s)
    # Settle: past the schedule's last effect, with slack for pending
    # persists and recovery, then one final repair pass so the
    # replication audit judges a repaired deployment.
    settle_until = max(ofc.kernel.now, schedule.duration) + SETTLE_SLACK_S
    ofc.kernel.run(until=settle_until)
    ofc.kernel.run_until(ofc.kernel.process(ofc.backend.repair()))

    violations = check_history(recorder.ops, ofc)
    recorder.violations = violations
    return ChaosCellResult(
        backend=cell.backend,
        intensity=cell.intensity,
        quota_policy=cell.quota_policy,
        seed=cell.seed,
        duration_s=cell.duration_s,
        submitted=stats.submitted,
        completed=stats.completed,
        failed=stats.failed,
        ops=len(recorder.ops),
        crashes=sum(1 for e in schedule.events if e.kind == "crash"),
        episodes=sum(1 for e in schedule.events if e.duration > 0),
        schedule_events=len(schedule),
        violations_total=len(violations),
        violations=count_by_invariant(violations),
        violation_details=[v.to_dict() for v in violations[:10]],
        schedule=schedule.to_dict(),
        log_stats=_log_stats(ofc.backend),
    )


def chaos_grid(
    quick: bool = False,
    seed: int = 0,
    backends: Sequence[str] = BACKEND_NAMES,
) -> List[ChaosCell]:
    """The backend × intensity × quota-policy sweep."""
    if quick:
        intensities = ["medium", "high"]
        policies = ["none"]
        n_tenants, mean_interval_s, duration_s = 60, 20.0, 90.0
    else:
        intensities = ["low", "medium", "high"]
        policies = ["none", "proportional"]
        n_tenants, mean_interval_s, duration_s = 120, 30.0, 240.0
    cells = []
    for backend in backends:
        for intensity in intensities:
            for policy in policies:
                cells.append(
                    ChaosCell(
                        backend=backend,
                        intensity=intensity,
                        quota_policy=policy,
                        n_tenants=n_tenants,
                        mean_interval_s=mean_interval_s,
                        duration_s=duration_s,
                        seed=cell_seed(
                            seed, "chaos", backend, intensity, policy
                        ),
                    )
                )
    return cells


def shrink_failing_cell(
    cell: ChaosCell,
    result: ChaosCellResult,
    max_probes: int = 16,
    require: Optional[str] = None,
) -> FaultSchedule:
    """ddmin the failing cell's schedule: re-run the identical cell
    under candidate sub-schedules, keeping deletions that still fail.

    By default any violation keeps a candidate (a smaller schedule
    exposing a different bug is still a reproducer); ``require`` pins
    the predicate to one invariant (e.g. ``"durability"``) so the
    minimized schedule demonstrates *that* failure mode, not the
    cheapest one reachable."""

    def still_fails(candidate: FaultSchedule) -> bool:
        probe = ChaosCell(
            backend=cell.backend,
            intensity=cell.intensity,
            quota_policy=cell.quota_policy,
            n_tenants=cell.n_tenants,
            mean_interval_s=cell.mean_interval_s,
            duration_s=cell.duration_s,
            seed=cell.seed,
            warmup_s=cell.warmup_s,
            schedule=candidate.to_dict(),
            config_overrides=cell.config_overrides,
        )
        outcome = run_chaos_cell(probe)
        if require is not None:
            return outcome.violations.get(require, 0) > 0
        return outcome.violations_total > 0

    return shrink_schedule(
        FaultSchedule.from_dict(result.schedule),
        still_fails,
        max_probes=max_probes,
    )


def export_reproducer(
    cell: ChaosCell,
    result: ChaosCellResult,
    schedule: FaultSchedule,
    out_dir: str = DEFAULT_REPRODUCER_DIR,
    tag: Optional[str] = None,
) -> str:
    """Write a minimized failing schedule as runnable JSON (the extra
    ``chaos`` block documents the cell; ``repro run --faults`` and
    :meth:`FaultSchedule.load` ignore it)."""
    os.makedirs(out_dir, exist_ok=True)
    stem = f"chaos_{result.cell_id}"
    if tag:
        stem += f"_{tag}"
    path = os.path.join(out_dir, f"{stem}_seed{result.seed}.json")
    payload = dict(schedule.to_dict())
    payload["chaos"] = {
        "backend": cell.backend,
        "intensity": cell.intensity,
        "quota_policy": cell.quota_policy,
        "n_tenants": cell.n_tenants,
        "mean_interval_s": cell.mean_interval_s,
        "duration_s": cell.duration_s,
        "warmup_s": cell.warmup_s,
        "seed": cell.seed,
        "config_overrides": dict(cell.config_overrides or {}),
        "violations": result.violations,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def run_chaos(
    quick: bool = False,
    workers: Optional[int] = None,
    seed: int = 0,
    grid_out: Optional[str] = None,
    reproducer_dir: str = DEFAULT_REPRODUCER_DIR,
    shrink: bool = True,
) -> List[ChaosCellResult]:
    """Run the sweep, export the grid, shrink + export any failures."""
    cells = chaos_grid(quick=quick, seed=seed)
    results: List[ChaosCellResult] = run_grid(
        run_chaos_cell, cells, workers=workers
    )
    reproducers: List[str] = []
    if shrink:
        for cell, result in zip(cells, results):
            if result.violations_total == 0:
                continue
            minimized = shrink_failing_cell(cell, result)
            reproducers.append(
                export_reproducer(cell, result, minimized, reproducer_dir)
            )
    if grid_out:
        export_grid(results, grid_out, reproducers=reproducers)
    return results


def export_grid(
    results: List[ChaosCellResult],
    out: str,
    reproducers: Optional[List[str]] = None,
) -> dict:
    """Write the fuzzing grid as a repro-obs document."""
    registry = MetricsRegistry()
    violations = registry.gauge(
        "chaos_violations_total",
        help="invariant violations found by the history checker per cell",
    )
    ops = registry.gauge(
        "chaos_ops", help="data-plane operations recorded per cell"
    )
    for row in results:
        labels = {
            "backend": row.backend,
            "intensity": row.intensity,
            "quota": row.quota_policy,
        }
        violations.set(row.violations_total, **labels)
        ops.set(row.ops, **labels)
    summary = {
        "cells": len(results),
        "backends": sorted({r.backend for r in results}),
        "ops": sum(r.ops for r in results),
        "crashes": sum(r.crashes for r in results),
        "episodes": sum(r.episodes for r in results),
        "violations_total": sum(r.violations_total for r in results),
        "failing_cells": sum(
            1 for r in results if r.violations_total > 0
        ),
        "reproducers": list(reproducers or []),
    }
    registry.register_collector("chaos", lambda: summary)
    return export_json(
        out,
        registry=registry,
        meta={
            "experiment": "chaos",
            "grid": [asdict(row) for row in results],
        },
    )


def format_results(results: List[ChaosCellResult]) -> str:
    from repro.bench.reporting import format_table

    return format_table(
        [
            "backend",
            "intensity",
            "quota",
            "ops",
            "ok",
            "failed",
            "crashes",
            "episodes",
            "violations",
        ],
        [
            (
                r.backend,
                r.intensity,
                r.quota_policy,
                r.ops,
                r.completed,
                r.failed,
                r.crashes,
                r.episodes,
                r.violations_total if not r.violations
                else f"{r.violations_total} {r.violations}",
            )
            for r in results
        ],
        title="Chaos — randomized faults + history checking",
    )
