"""One grid experiment: ``repro tenants``, ``cachewars``, ``chaos``,
``faults`` — and ``repro run``, which runs one cell of it.

All of them measure the same thing — one OFC deployment, one seeded
multi-tenant workload streamed by
:class:`~repro.workloads.tenants.TenantLoadEngine` (Zipf app popularity,
heavy-tailed rates, diurnal + bursty arrivals), a warm-up, a measured
window — so there is one cell type (:class:`TenantCell`), one cell body
(:func:`run_cell`) and one row (:class:`GridRow`) carrying performance,
cost, fairness *and* consistency for every cell.  What a cell does
beyond that is derived from the cell: one that names a fault
``intensity`` or an explicit ``schedule`` is *faulted* — a
:class:`~repro.checks.HistoryRecorder` captures the complete dataclient
history while a :func:`~repro.faults.chaos.chaos_schedule` timeline
crashes nodes and degrades the RSDS/network, a sampler records the
availability timeline (hit ratio, live servers and under-replicated
objects per :data:`TIMELINE_WINDOW_S` window, until the settle ends),
and after the run settles :func:`~repro.checks.check_history` audits
acked-write durability, stale/shadow reads, read-your-writes, version
order, dirty finals and the replication level.  This is the only place
a deployment runs under a fault schedule.

The experiments are four grid definitions (:data:`GRIDS`):

* ``tenants`` — tenant count × Zipf skew × quota policy: per-tenant hit
  ratios and latencies plus Jain's fairness index, on cells sized so
  cache pressure is real;
* ``cachewars`` — one workload replayed against every registered cache
  backend (:mod:`repro.cache`): hit ratio, latency across tenants, and
  the :class:`~repro.cache.backend.CostMeter` figure (dedicated vs
  harvested GB-seconds plus per-op charges) per completed invocation;
* ``chaos`` — backend × fault intensity × quota policy, fuzzed and
  audited.  Every cell is deterministic in its seed (schedule times are
  absolute sim times, so a generated schedule replays exactly); a
  failing cell's schedule is ddmin-shrunk and exported as runnable JSON
  (``repro run --faults <file>``) under ``examples/faults/``;
* ``faults`` — the same arrivals with no fault and with one node crashed
  a third of the way in and restarted at two thirds: what a crash costs
  in completed invocations, hit ratio and lost objects.

:func:`load_cell` turns a fault file into the cell it documents — a
reproducer's ``chaos`` block is the cell, a plain schedule runs on the
``faults`` deployment — which is what ``repro run --faults`` runs.

Each grid is exported as a repro-obs document (deterministic for a
fixed seed: sorted keys, no timestamps) to ``results/<name>_grid.json``.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.envs import build_ofc_env
from repro.bench.reporting import format_table
from repro.bench.runner import cell_seed, run_grid
from repro.cache import BACKENDS
from repro.checks import check_history, HistoryRecorder
from repro.checks.invariants import count_by_invariant
from repro.core.config import OFCConfig
from repro.faas import reset_id_counters
from repro.faults import FaultEvent, FaultInjector, FaultSchedule, ScheduleError
from repro.faults.chaos import chaos_schedule, chaos_targets, shrink_schedule
from repro.obs.export import export_json
from repro.obs.registry import MetricsRegistry
from repro.workloads.tenants import TenantLoadEngine, TenantWorkloadConfig

#: Backends the sweeps compare, in a stable order.
BACKEND_NAMES = tuple(sorted(BACKENDS))
#: Quota policies the sweeps compare (see :mod:`repro.core.tenancy`).
POLICIES = ("none", "static", "proportional")

#: Sandbox keep-alive for every cell (seconds): thousands of one-off
#: tenants must not pin idle sandboxes for the default ten minutes, and
#: the harvest pool has to breathe.
CELL_KEEPALIVE_S = 8.0
#: Per-node memory for ``tenants`` cells: roomy enough that sandbox churn
#: is not the bottleneck (cache contention is what that sweep studies).
TENANTS_NODE_MB = 8192.0
#: Per-node harvest ceiling for ``tenants`` cells: keeps the pooled cache
#: well below the aggregate tenant working set, so admission/quota
#: policies actually bind (an uncapped harvest at this node size dwarfs
#: the demand and every policy degenerates to "none").  At this setting
#: the 1000-tenant quick cell shows the headline contrast:
#: first-come-first-cached drops Jain fairness to ~0.31 while the quota
#: policies hold ~0.5.
TENANTS_CACHE_CAP_MB = 16.0
#: Slack past the schedule's end before the end-state audit: covers the
#: persistor's full retry backoff plus requeue cycles, one InfiniCache
#: reclaim tick and a repair pass.
SETTLE_SLACK_S = 45.0
#: Width of one availability-timeline window (simulated seconds).
TIMELINE_WINDOW_S = 15.0
#: Where minimized reproducers land by default.
DEFAULT_REPRODUCER_DIR = "examples/faults"


@dataclass(frozen=True)
class TenantCell:
    """One independent deployment under one seeded tenant workload."""

    n_tenants: int
    mean_interval_s: float
    duration_s: float
    seed: int
    #: Simulated seconds streamed before measurement begins: the system
    #: needs to reach equilibrium (cache grown into the free memory,
    #: slack pool adapted to the churn, autoscalers settled) or the
    #: cache-fill transient dominates the counters.  A faulted cell warms
    #: the cache so ``chaos_targets()`` sees real placements.
    warmup_s: float
    backend: str = "ofc"
    quota_policy: str = "none"
    zipf_s: float = 1.1
    #: Deployment: modest nodes, so OFC's harvest is a real (finite) pool.
    nodes: int = 4
    node_mb: float = 4096.0
    cache_cap_mb: Optional[float] = None
    #: The fault axis.  ``intensity`` generates a schedule from the seed
    #: after warm-up; an explicit ``schedule`` (replay/shrink probes)
    #: wins over it.
    intensity: Optional[str] = None
    schedule: Optional[Dict[str, Any]] = None
    #: Extra OFCConfig attributes — lets regression tests fuzz the
    #: pre-fix modes (``faast_replication=False`` etc.).
    config_overrides: Optional[Dict[str, Any]] = None

    @property
    def faulted(self) -> bool:
        return self.intensity is not None or self.schedule is not None


@dataclass
class GridRow:
    """What one cell measured: performance, cost, fairness, consistency."""

    backend: str
    quota_policy: str
    intensity: Optional[str]
    n_tenants: int
    zipf_s: float
    duration_s: float
    seed: int
    nodes: int
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    #: Failed invocations by cause (the exception that ended the last
    #: attempt, from ``InvocationRecord.error``).
    failures: Dict[str, int] = field(default_factory=dict)
    cold_starts: int = 0
    #: The rclib data plane's view of its cache.
    hit_ratio: float = 0.0
    #: Tenants that issued at least one invocation / touched the cache.
    tenants_active: int = 0
    tenants_measured: int = 0
    #: Jain's index over the per-tenant hit ratios, and their spread.
    fairness_index: float = 1.0
    hit_ratio_mean: float = 0.0
    hit_ratio_p10: float = 0.0
    hit_ratio_p50: float = 0.0
    hit_ratio_p90: float = 0.0
    #: Distribution across tenants of each tenant's mean latency (s).
    latency_p50_s: float = 0.0
    latency_p90_s: float = 0.0
    latency_p99_s: float = 0.0
    quota_rejections: int = 0
    cache_evictions: int = 0
    cache_usage_bytes: float = 0.0
    #: The full per-tenant hit-ratio map (tenant id -> ratio).
    per_tenant_hit_ratio: Dict[str, float] = field(default_factory=dict)
    #: Cost-meter figures for the measured window.
    cost_units: float = 0.0
    cost_per_1k_invocations: float = 0.0
    dedicated_mb_s: float = 0.0
    harvested_mb_s: float = 0.0
    lambda_invocations: int = 0
    backup_ops: int = 0
    cache_capacity_bytes: float = 0.0
    cache_used_bytes: float = 0.0
    #: ``LogStats`` summed over the cache servers' master logs (empty on
    #: backends without one): pins *what* the cleaner did, which the
    #: op history cannot see.
    log_stats: Dict[str, int] = field(default_factory=dict)
    #: Cached objects whose every copy a crash destroyed.
    lost_objects: int = 0
    #: Faulted cells: recorded data-plane ops, the schedule the cell ran
    #: (replayable), what the injector did (``FaultInjectorStats``), the
    #: availability timeline (one ``{t, hit_ratio, live_servers,
    #: under_replicated}`` per window from injector start to the end of
    #: the settle; ``hit_ratio`` is None for a window without reads) and
    #: what the history checker found.
    ops: int = 0
    crashes: int = 0
    episodes: int = 0
    schedule_events: int = 0
    schedule: Dict[str, Any] = field(default_factory=dict)
    injector: Dict[str, int] = field(default_factory=dict)
    timeline: List[Dict[str, Any]] = field(default_factory=list)
    violations_total: int = 0
    #: invariant name -> count.
    violations: Dict[str, int] = field(default_factory=dict)
    #: First few violations, for the table/export (the full list lives
    #: on the recorder during the run).
    violation_details: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def cell_id(self) -> str:
        return f"{self.backend}-{self.intensity}-{self.quota_policy}"

    @property
    def min_window_hit_ratio(self) -> Optional[float]:
        """The timeline's worst window (None without one that read)."""
        return min(
            (p["hit_ratio"] for p in self.timeline if p["hit_ratio"] is not None),
            default=None,
        )


def _percentile(values: Sequence[float], q: float) -> float:
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _log_stats(backend) -> Dict[str, int]:
    totals: Counter = Counter()
    coordinator = getattr(backend, "coordinator", None)
    for server in coordinator.servers.values() if coordinator else ():
        totals.update(asdict(server.log.stats))
    return dict(totals)


def _sample_timeline(ofc, timeline: List[Dict[str, Any]]):
    """Append one availability window per :data:`TIMELINE_WINDOW_S`.
    Perpetual: it stops when the cell stops running the kernel (the end
    of the settle), so a schedule that outlasts the load is covered."""
    stats = ofc.rclib_stats
    hits = stats.hits_local + stats.hits_remote
    reads = hits + stats.misses
    while True:
        yield TIMELINE_WINDOW_S
        seen_hits, seen_reads = hits, reads
        hits = stats.hits_local + stats.hits_remote
        reads = hits + stats.misses
        snap = ofc.backend.stats_snapshot()
        timeline.append(
            {
                "t": ofc.kernel.now,
                "hit_ratio": (
                    (hits - seen_hits) / (reads - seen_reads)
                    if reads > seen_reads
                    else None
                ),
                "live_servers": snap["live_servers"],
                "under_replicated": snap["under_replicated"],
            }
        )


def run_cell(cell: TenantCell) -> GridRow:
    """Deploy → warm → (inject) → measure → (settle, repair, audit).
    Module-level: the sweep runner pickles this into worker processes."""
    # Process-global id counters leak across deployments (request ids
    # end up inside pipeline object keys); reset them so a cell's grid
    # row is identical whether it ran serially after another cell or
    # alone in a worker process.
    reset_id_counters()
    config = OFCConfig(
        cache_backend=cell.backend,
        tenant_quota_policy=cell.quota_policy,
        tenant_static_fraction=1.0 / cell.n_tenants,
        cache_cap_mb=cell.cache_cap_mb,
    )
    known = {f.name for f in fields(OFCConfig)}
    for attr, value in (cell.config_overrides or {}).items():
        if attr not in known:
            raise ScheduleError(
                f"unknown config override {attr!r}; OFCConfig's fields "
                f"are {sorted(known)}"
            )
        setattr(config, attr, value)
    ofc = build_ofc_env(
        nodes=cell.nodes,
        node_mb=cell.node_mb,
        seed=cell.seed,
        config=config,
        keepalive_s=CELL_KEEPALIVE_S,
    )
    recorder = HistoryRecorder(ofc) if cell.faulted else None
    workload = TenantWorkloadConfig(
        n_tenants=cell.n_tenants,
        zipf_s=cell.zipf_s,
        mean_interval_s=cell.mean_interval_s,
        seed=cell.seed,
    )
    engine = TenantLoadEngine(ofc.kernel, ofc.platform, ofc.store, workload)
    if cell.warmup_s > 0:
        engine.run(cell.warmup_s)
        if not cell.faulted:
            # The figures cover exactly the measured window (cache
            # contents and memory levels carry over, totals restart).  A
            # faulted cell's counts span its whole recorded history.
            engine.reset_stats()
            ofc.tenancy.reset_counters()
            ofc.rclib_stats.__init__()  # fresh data-plane counters
            ofc.backend.cost.reset()
    schedule = FaultSchedule()
    if cell.schedule is not None:
        schedule = FaultSchedule.from_dict(cell.schedule)
    elif cell.faulted:
        schedule = chaos_schedule(
            cell.seed,
            cell.duration_s,
            ofc.backend.node_ids,
            intensity=cell.intensity,
            targets=chaos_targets(ofc.backend),
            start_at=ofc.kernel.now,
        )
    timeline: List[Dict[str, Any]] = []
    injector = None
    if cell.faulted:
        injector = FaultInjector(ofc, schedule)
        injector.start()
        ofc.kernel.process(_sample_timeline(ofc, timeline), name="timeline")
    stats = engine.run(cell.duration_s)
    violations = []
    if cell.faulted:
        # Settle: past the schedule's last effect, with slack for pending
        # persists and recovery, then one final repair pass so the
        # replication audit judges a repaired deployment.
        settle_until = max(ofc.kernel.now, schedule.duration) + SETTLE_SLACK_S
        ofc.kernel.run(until=settle_until)
        ofc.kernel.run_until(ofc.kernel.process(ofc.backend.repair()))
        violations = recorder.violations = check_history(recorder.ops, ofc)

    ratios = ofc.tenancy.hit_ratios()
    ratio_values = list(ratios.values())
    latency_means = [
        agg.mean_latency_s
        for agg in stats.per_tenant.values()
        if agg.completed > 0
    ]
    tenancy = ofc.tenancy.snapshot()
    cost = ofc.backend.cost_snapshot()
    completed = stats.completed
    return GridRow(
        backend=cell.backend,
        quota_policy=cell.quota_policy,
        intensity=cell.intensity,
        n_tenants=cell.n_tenants,
        zipf_s=cell.zipf_s,
        duration_s=cell.duration_s,
        seed=cell.seed,
        nodes=cell.nodes,
        submitted=stats.submitted,
        completed=completed,
        failed=stats.failed,
        failures=stats.failures,
        cold_starts=sum(a.cold_starts for a in stats.per_tenant.values()),
        hit_ratio=ofc.rclib_stats.hit_ratio,
        tenants_active=len(stats.per_tenant),
        tenants_measured=len(ratio_values),
        fairness_index=tenancy["fairness_index"],
        hit_ratio_mean=float(np.mean(ratio_values)) if ratio_values else 0.0,
        hit_ratio_p10=_percentile(ratio_values, 10),
        hit_ratio_p50=_percentile(ratio_values, 50),
        hit_ratio_p90=_percentile(ratio_values, 90),
        latency_p50_s=_percentile(latency_means, 50),
        latency_p90_s=_percentile(latency_means, 90),
        latency_p99_s=_percentile(latency_means, 99),
        quota_rejections=int(tenancy["rejections"]),
        cache_evictions=int(tenancy["evictions"]),
        cache_usage_bytes=float(tenancy["usage_bytes"]),
        per_tenant_hit_ratio=ratios,
        cost_units=cost["cost_units"],
        cost_per_1k_invocations=(
            1000.0 * cost["cost_units"] / completed if completed else 0.0
        ),
        dedicated_mb_s=cost["dedicated_mb_s"],
        harvested_mb_s=cost["harvested_mb_s"],
        lambda_invocations=cost["lambda_invocations"],
        backup_ops=cost["backup_ops"],
        cache_capacity_bytes=float(ofc.backend.total_capacity),
        cache_used_bytes=float(ofc.backend.total_used),
        log_stats=_log_stats(ofc.backend),
        lost_objects=ofc.backend.stats_snapshot()["lost_objects"],
        ops=len(recorder.ops) if recorder else 0,
        crashes=sum(1 for e in schedule.events if e.kind == "crash"),
        episodes=sum(1 for e in schedule.events if e.duration > 0),
        schedule_events=len(schedule),
        schedule=schedule.to_dict(),
        injector=asdict(injector.stats) if injector else {},
        timeline=timeline,
        violations_total=len(violations),
        violations=count_by_invariant(violations),
        violation_details=[v.to_dict() for v in violations[:10]],
    )


# -- the four grids ----------------------------------------------------------


def tenants_cells(quick: bool = False, seed: int = 0) -> List[TenantCell]:
    """Tenant count × skew × quota policy."""
    if quick:
        tenant_counts, skews = (1000,), (1.1,)
        duration_s, mean_interval_s = 600.0, 120.0
    else:
        tenant_counts, skews = (2000, 20000), (0.9, 1.3)
        duration_s, mean_interval_s = 1800.0, 300.0
    return [
        TenantCell(
            n_tenants=n,
            zipf_s=s,
            quota_policy=policy,
            duration_s=duration_s,
            mean_interval_s=mean_interval_s,
            warmup_s=300.0,
            # The policy is deliberately NOT part of the seed: all three
            # policies must face the identical tenant population and
            # arrival schedule, or their fairness is not comparable.
            seed=cell_seed(seed, "tenants", n, s),
            # Scale the cluster with the tenant count (>= the default four).
            nodes=max(4, -(-n // 125)),
            node_mb=TENANTS_NODE_MB,
            cache_cap_mb=TENANTS_CACHE_CAP_MB,
        )
        for n in tenant_counts
        for s in skews
        for policy in POLICIES
    ]


def cachewars_cells(quick: bool = False, seed: int = 0) -> List[TenantCell]:
    """One cell per backend over the shared seeded workload."""
    if quick:
        n_tenants, duration_s, mean_interval_s = 150, 300.0, 60.0
    else:
        n_tenants, duration_s, mean_interval_s = 600, 900.0, 120.0
    zipf_s = 1.1
    # The backend is deliberately NOT part of the seed: every
    # architecture must face the identical population and arrivals, or
    # the grid compares workloads instead of architectures.
    shared_seed = cell_seed(seed, "cachewars", n_tenants, zipf_s)
    return [
        TenantCell(
            backend=backend,
            n_tenants=n_tenants,
            zipf_s=zipf_s,
            duration_s=duration_s,
            mean_interval_s=mean_interval_s,
            warmup_s=120.0,
            seed=shared_seed,
        )
        for backend in BACKEND_NAMES
    ]


def chaos_cells(quick: bool = False, seed: int = 0) -> List[TenantCell]:
    """Backend × fault intensity × quota policy."""
    if quick:
        intensities, policies = ("medium", "high"), ("none",)
        n_tenants, mean_interval_s, duration_s = 60, 20.0, 90.0
    else:
        intensities = ("low", "medium", "high")
        policies = ("none", "proportional")
        n_tenants, mean_interval_s, duration_s = 120, 30.0, 240.0
    return [
        TenantCell(
            backend=backend,
            intensity=intensity,
            quota_policy=policy,
            n_tenants=n_tenants,
            mean_interval_s=mean_interval_s,
            duration_s=duration_s,
            warmup_s=30.0,
            seed=cell_seed(seed, "chaos", backend, intensity, policy),
        )
        for backend in BACKEND_NAMES
        for intensity in intensities
        for policy in policies
    ]


def crash_restart_schedule(duration_s: float, node: str = "w1") -> FaultSchedule:
    """The canonical availability scenario: one node dies a third of the
    way in and returns at two thirds."""
    return FaultSchedule(
        [
            FaultEvent(at=duration_s / 3.0, kind="crash", node=node),
            FaultEvent(at=2.0 * duration_s / 3.0, kind="restart", node=node),
        ]
    )


def faults_cell(
    duration_s: float, schedule: FaultSchedule, seed: int = 0
) -> TenantCell:
    """The deployment ``repro faults`` and a plain ``repro run --faults``
    schedule run on.  No warm-up: schedule times are absolute, so the
    load starts as close to t=0 as preparation allows."""
    return TenantCell(
        n_tenants=60,
        mean_interval_s=20.0,
        duration_s=duration_s,
        warmup_s=0.0,
        # The schedule is deliberately NOT part of the seed: with and
        # without the fault, the arrivals must be identical.
        seed=cell_seed(seed, "faults"),
        schedule=schedule.to_dict(),
    )


def faults_cells(quick: bool = False, seed: int = 0) -> List[TenantCell]:
    """No fault vs crash/restart, on identical arrivals."""
    duration_s = 120.0 if quick else 240.0
    return [
        faults_cell(duration_s, schedule, seed)
        for schedule in (FaultSchedule(), crash_restart_schedule(duration_s))
    ]


def load_cell(
    path: Optional[str], duration_s: float = 240.0, **changes: Any
) -> TenantCell:
    """The cell a fault file documents, optionally with fields replaced.

    A reproducer's ``chaos`` block is the cell (``duration_s`` included:
    the argument is not used) and its events the schedule; a plain
    schedule — or no file — runs on :func:`faults_cell` for
    ``duration_s``."""
    doc: Dict[str, Any] = {"events": []}
    if path is not None:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    schedule = FaultSchedule.from_dict(doc)
    if "chaos" not in doc:
        return replace(faults_cell(duration_s, schedule), **changes)
    # ``violations`` is what the export found, not a field; the file's
    # events are the schedule, so a ``schedule`` key is not one either.
    block = {k: v for k, v in doc["chaos"].items() if k != "violations"}
    known = {f.name for f in fields(TenantCell)} - {"schedule"}
    unknown = sorted(set(block) - known)
    if unknown:
        raise ScheduleError(
            f"{path}: unknown chaos-block field(s) {unknown}; a cell's "
            f"fields are {sorted(known)}"
        )
    return replace(TenantCell(**block, schedule=schedule.to_dict()), **changes)


@dataclass(frozen=True)
class GridExperiment:
    """A grid definition: which cells, and which of the shared row's
    columns its table, gauges and gauge labels show."""

    name: str
    title: str
    cells: Callable[[bool, int], List[TenantCell]]
    #: Table columns: (header, row -> printed value).
    columns: Tuple[Tuple[str, Callable[[GridRow], Any]], ...]
    #: Gauge label -> row field.
    labels: Dict[str, str]
    #: Gauges, named ``<experiment>_<row field>``: (row field, help).
    gauges: Tuple[Tuple[str, str], ...]


_OK_FAILED = (("ok", lambda r: r.completed), ("failed", lambda r: r.failed))

GRIDS: Dict[str, GridExperiment] = {
    grid.name: grid
    for grid in (
        GridExperiment(
            name="tenants",
            title="Multi-tenant fairness — tenant count x skew x quota policy",
            cells=tenants_cells,
            columns=(
                ("tenants", lambda r: r.n_tenants),
                ("skew", lambda r: r.zipf_s),
                ("policy", lambda r: r.quota_policy),
                *_OK_FAILED,
                ("fairness", lambda r: round(r.fairness_index, 4)),
                ("hit p50", lambda r: round(r.hit_ratio_p50, 3)),
                ("lat p90 (s)", lambda r: round(r.latency_p90_s, 3)),
                ("rejected", lambda r: r.quota_rejections),
            ),
            labels={
                "policy": "quota_policy",
                "n_tenants": "n_tenants",
                "zipf_s": "zipf_s",
            },
            gauges=(
                (
                    "fairness_index",
                    "Jain's index over per-tenant cache hit ratios",
                ),
                (
                    "quota_rejections",
                    "cache admissions refused by the tenant quota policy",
                ),
            ),
        ),
        GridExperiment(
            name="cachewars",
            title="Cache wars — one workload, every architecture",
            cells=cachewars_cells,
            columns=(
                ("backend", lambda r: r.backend),
                *_OK_FAILED,
                ("hit ratio", lambda r: round(r.hit_ratio, 4)),
                ("lat p50 (s)", lambda r: round(r.latency_p50_s, 4)),
                ("lat p90 (s)", lambda r: round(r.latency_p90_s, 4)),
                ("cost/1k inv", lambda r: round(r.cost_per_1k_invocations, 4)),
            ),
            labels={"backend": "backend"},
            gauges=(
                ("hit_ratio", "data-plane cache hit ratio per backend"),
                (
                    "latency_p90_s",
                    "p90 across tenants of per-tenant mean latency",
                ),
                (
                    "cost_per_1k_invocations",
                    "normalized cache cost per 1000 completed invocations",
                ),
            ),
        ),
        GridExperiment(
            name="chaos",
            title="Chaos — randomized faults + history checking",
            cells=chaos_cells,
            columns=(
                ("backend", lambda r: r.backend),
                ("intensity", lambda r: r.intensity),
                ("quota", lambda r: r.quota_policy),
                ("ops", lambda r: r.ops),
                *_OK_FAILED,
                ("crashes", lambda r: r.crashes),
                ("episodes", lambda r: r.episodes),
                (
                    "violations",
                    lambda r: f"{r.violations_total} {r.violations}"
                    if r.violations
                    else r.violations_total,
                ),
            ),
            labels={
                "backend": "backend",
                "intensity": "intensity",
                "quota": "quota_policy",
            },
            gauges=(
                (
                    "violations_total",
                    "invariant violations found by the history checker "
                    "per cell",
                ),
                ("ops", "data-plane operations recorded per cell"),
            ),
        ),
        GridExperiment(
            name="faults",
            title="Availability — crash/restart vs baseline",
            cells=faults_cells,
            columns=(
                (
                    "scenario",
                    lambda r: "crash-restart" if r.crashes else "baseline",
                ),
                *_OK_FAILED,
                ("hit ratio", lambda r: round(r.hit_ratio, 4)),
                ("min window", lambda r: r.min_window_hit_ratio),
                ("recovered", lambda r: r.injector.get("recovered_objects", 0)),
                ("repaired", lambda r: r.injector.get("repaired_keys", 0)),
                ("dirty finals", lambda r: r.violations.get("dirty-final", 0)),
            ),
            labels={"crashes": "crashes"},
            gauges=(
                ("hit_ratio", "data-plane cache hit ratio per scenario"),
                ("lost_objects", "cached objects with no surviving copy"),
            ),
        ),
    )
}


def format_results(grid: GridExperiment, rows: List[GridRow]) -> str:
    return format_table(
        [header for header, _ in grid.columns],
        [[value(row) for _, value in grid.columns] for row in rows],
        title=grid.title,
    )


def export_grid(
    grid: GridExperiment,
    rows: List[GridRow],
    out: str,
    reproducers: Sequence[str] = (),
) -> dict:
    """Write the grid as a repro-obs document (returns it as a dict):
    the definition's gauges, one summary collector named after the
    experiment, and every row in full under ``meta.grid``."""
    registry = MetricsRegistry()
    for attr, help_text in grid.gauges:
        gauge = registry.gauge(f"{grid.name}_{attr}", help=help_text)
        for row in rows:
            labels = {
                label: getattr(row, source)
                for label, source in grid.labels.items()
            }
            gauge.set(getattr(row, attr), **labels)
    fairness = [r.fairness_index for r in rows]
    summary = {
        "cells": len(rows),
        "backends": sorted({r.backend for r in rows}),
        "submitted": sum(r.submitted for r in rows),
        "completed": sum(r.completed for r in rows),
        "failed": sum(r.failed for r in rows),
        "min_fairness_index": min(fairness, default=1.0),
        "max_fairness_index": max(fairness, default=1.0),
        "ops": sum(r.ops for r in rows),
        "crashes": sum(r.crashes for r in rows),
        "episodes": sum(r.episodes for r in rows),
        "violations_total": sum(r.violations_total for r in rows),
        "failing_cells": sum(1 for r in rows if r.violations_total > 0),
        "reproducers": list(reproducers),
    }
    registry.register_collector(grid.name, lambda: summary)
    return export_json(
        out,
        registry=registry,
        meta={"experiment": grid.name, "grid": [asdict(r) for r in rows]},
    )


def run_grid_experiment(
    grid: GridExperiment,
    quick: bool = False,
    workers: Optional[int] = None,
    seed: int = 0,
    grid_out: Optional[str] = None,
    reproducer_dir: str = DEFAULT_REPRODUCER_DIR,
) -> List[GridRow]:
    """Run the sweep, shrink + export any failing cell's schedule, and
    (optionally) export the grid document."""
    cells = grid.cells(quick, seed)
    rows: List[GridRow] = run_grid(run_cell, cells, workers=workers)
    reproducers = [
        export_reproducer(
            cell, row, shrink_failing_cell(cell, row), reproducer_dir
        )
        for cell, row in zip(cells, rows)
        if row.violations_total
    ]
    if grid_out:
        export_grid(grid, rows, grid_out, reproducers)
    return rows


# -- chaos only: minimize a failing schedule, write the reproducer -----------


def shrink_failing_cell(
    cell: TenantCell,
    row: GridRow,
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
        outcome = run_cell(replace(cell, schedule=candidate.to_dict()))
        if require is not None:
            return outcome.violations.get(require, 0) > 0
        return outcome.violations_total > 0

    return shrink_schedule(
        FaultSchedule.from_dict(row.schedule), still_fails, max_probes=max_probes
    )


def export_reproducer(
    cell: TenantCell,
    row: GridRow,
    schedule: FaultSchedule,
    out_dir: str = DEFAULT_REPRODUCER_DIR,
    tag: Optional[str] = None,
) -> str:
    """Write a minimized failing schedule as runnable JSON.  The extra
    ``chaos`` block is the cell: :func:`load_cell` (and so ``repro run
    --faults``) replays it with the file's events as its schedule;
    :meth:`FaultSchedule.load` ignores the block."""
    os.makedirs(out_dir, exist_ok=True)
    stem = f"chaos_{row.cell_id}"
    if tag:
        stem += f"_{tag}"
    path = os.path.join(out_dir, f"{stem}_seed{row.seed}.json")
    payload = schedule.to_dict()
    payload["chaos"] = dict(asdict(cell), violations=row.violations)
    del payload["chaos"]["schedule"]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
