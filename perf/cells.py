"""The five benchmark cells, and the child process that runs one of them.

``python -m perf.cells '<json spec>'`` builds one cell (timed: set-up),
runs its measured phase (timed: wall), checks what the cell can check
on its own and prints one JSON object.  ``perf.run`` starts one such
child per repeat, strictly one after another, so no cell ever sees
state another cell left behind.

Everything here reaches the program through public constructors, the
``platform.completion_listeners`` hook and
``OFCPlatform.obs.snapshot()["collected"]``; see ``perf/README.md`` for
the pinned import surface.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from dataclasses import dataclass, field, replace
from functools import partial
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

import numpy as np

import perf  # noqa: F401  (puts src/ on sys.path)
from perf import attribution
from perf.calibration import Calibration, SLICES
from repro.bench import model_cache
from repro.bench.envs import build_ofc_env, build_owk_swift_env, pretrain_function
from repro.checks import check_history, HistoryRecorder
from repro.faas import reset_id_counters
from repro.faults import chaos_schedule, chaos_targets, FaultInjector
from repro.workloads.faasload import FaaSLoad, TenantProfile, TenantSpec
from repro.workloads.tenants import TenantLoadEngine, TenantWorkloadConfig

KB = 1024
MB = 1024 * 1024

WORKLOADS = (
    "functions_read",
    "swift_baseline",
    "tenants_pressure",
    "pipelines_ephemeral",
    "chaos_faulted",
)

#: Figure 9's six single-stage functions.
FIG9_FUNCTIONS = (
    "wand_blur",
    "wand_resize",
    "wand_sepia",
    "wand_rotate",
    "wand_denoise",
    "wand_edge",
)
IMAGE_SIZES = (16 * KB, 64 * KB, 256 * KB, 1 * MB, 3 * MB)
PIPELINE_SIZES = {
    "map_reduce": (5 * MB, 10 * MB),
    "THIS": (16 * MB, 25 * MB),
    "IMAD": (1 * MB, 2 * MB, 4 * MB),
    "image_processing": (64 * KB, 256 * KB, 1 * MB),
}

#: The deployment is fixed: tenant population, input objects, function
#: ground truth, pretraining samples and the fault scenario are drawn
#: from this seed.  ``--seed`` draws the traffic: arrival times, argument
#: values and every latency jitter stream of the platform.
DATASET_SEED = 0

#: Simulated seconds run after the load generator drains, so write-backs,
#: post-persist deletes and pipeline clean-ups still in flight complete.
DRAIN_S = 30.0
#: Past the fault schedule's end: the persistor's full retry backoff plus
#: a repair pass (the value ``repro chaos`` settles with).
SETTLE_S = 45.0

#: Per-workload sizes: what one repeat builds and how long it drives it.
SIZES: Dict[str, Dict[str, Any]] = {
    "functions_read": {
        "nodes": 4, "node_mb": 49152.0, "copies": 3,
        "mean_interval_s": 10.0, "span_s": 3600.0,
    },
    "swift_baseline": {
        "nodes": 4, "node_mb": 49152.0, "copies": 3,
        "mean_interval_s": 10.0, "span_s": 3600.0,
    },
    "tenants_pressure": {
        "nodes": 4, "node_mb": 8192.0, "keepalive_s": 8.0, "n_tenants": 200,
        "mean_interval_s": 4.0, "warmup_s": 30.0, "span_s": 120.0,
    },
    "pipelines_ephemeral": {
        "nodes": 4, "node_mb": 49152.0, "copies": 3,
        "mean_interval_s": 20.0, "span_s": 1800.0,
    },
    "chaos_faulted": {
        "nodes": 4, "node_mb": 8192.0, "keepalive_s": 8.0, "n_tenants": 200,
        "mean_interval_s": 4.0, "warmup_s": 30.0, "span_s": 120.0,
        "intensity": "medium",
    },
}
#: ``--smoke``: spans about twenty times shorter (the faulted cell keeps
#: enough span for a crash, its restart and three episodes to fit).
SMOKE: Dict[str, Dict[str, Any]] = {
    "functions_read": {"span_s": 180.0},
    "swift_baseline": {"span_s": 180.0},
    "tenants_pressure": {"span_s": 8.0, "warmup_s": 4.0},
    "pipelines_ephemeral": {"span_s": 120.0},
    "chaos_faulted": {"span_s": 30.0, "warmup_s": 4.0},
}


def sizes_for(workload: str, smoke: bool) -> Dict[str, Any]:
    return {**SIZES[workload], **(SMOKE[workload] if smoke else {})}


@dataclass
class Cell:
    """One built deployment, ready for its measured phase."""

    platform: Any
    store: Any
    #: The OFCPlatform; None on stock OpenWhisk (``swift_baseline``).
    ofc: Any
    #: Runs the measured phase to the end (load, drain, settle, audit).
    measure: Callable[[], None]
    #: Invocations the load generator says it submitted while measuring.
    submitted: Callable[[], int]
    #: Facts only this workload has (fault schedule shape, violations).
    facts: Dict[str, float] = field(default_factory=dict)


# -- builders ------------------------------------------------------------------


def _faasload_cell(seed: int, size: Dict[str, Any], system: str, apps) -> Cell:
    """FaaSLoad tenants (``copies`` of each app) on OFC or on OWK-Swift."""
    specs = []
    for copy in range(size["copies"]):
        for app in apps:
            sizes = PIPELINE_SIZES.get(app, IMAGE_SIZES)
            specs.append(
                TenantSpec(
                    tenant_id=f"tenant-{app}-{copy}",
                    workload=app,
                    profile=TenantProfile.NORMAL,
                    mean_interval_s=size["mean_interval_s"],
                    arrival="exponential",
                    input_sizes=list(sizes),
                    n_inputs=len(sizes),
                )
            )
    if system == "ofc":
        ofc = build_ofc_env(nodes=size["nodes"], node_mb=size["node_mb"], seed=seed)
        kernel, platform, store = ofc.kernel, ofc.platform, ofc.store
    else:
        ofc = None
        env = build_owk_swift_env(
            nodes=size["nodes"], node_mb=size["node_mb"], seed=seed
        )
        kernel, platform, store = env.kernel, env.platform, env.store
    load = FaaSLoad(kernel, platform, store, truth_seed=DATASET_SEED)
    load.prepare(specs)
    for index, runtime in enumerate(load.tenants):
        runtime.rng = np.random.default_rng([seed, 7919, index])
    if ofc is not None:
        # Cold pretraining (the model cache was cleared): the paper ships
        # mature models, so the measured phase starts with them.
        for runtime in load.tenants:
            if runtime.model is not None:
                pretrain_function(
                    ofc,
                    runtime.model,
                    runtime.descriptors,
                    tenant=runtime.spec.tenant_id,
                    seed=DATASET_SEED,
                )

    def measure() -> None:
        load.run(size["span_s"])
        kernel.run(until=kernel.now + DRAIN_S)

    def submitted() -> int:
        single = sum(t.invocations_fired for t in load.tenants if t.app is None)
        staged = sum(
            len(stage.records)
            for pipeline in platform.pipeline_records
            for stage in pipeline.stage_records
        )
        return single + staged

    return Cell(platform, store, ofc, measure, submitted)


def _tenant_cell(seed: int, size: Dict[str, Any], faulted: bool) -> Cell:
    """The memory-tight streaming-tenant deployment, warmed up."""
    ofc = build_ofc_env(
        nodes=size["nodes"],
        node_mb=size["node_mb"],
        seed=seed,
        keepalive_s=size["keepalive_s"],
    )
    recorder = HistoryRecorder(ofc) if faulted else None
    engine = TenantLoadEngine(
        ofc.kernel,
        ofc.platform,
        ofc.store,
        TenantWorkloadConfig(
            n_tenants=size["n_tenants"],
            mean_interval_s=size["mean_interval_s"],
            seed=DATASET_SEED,
        ),
    )
    engine.prepare()
    # TenantStream derives its arrival and argument streams lazily from
    # its config's seed: the population is drawn, now seed the traffic.
    traffic = replace(engine.config, seed=seed)
    for tenant in engine.tenants:
        tenant.config = traffic
    engine.run(size["warmup_s"])
    engine.reset_stats()
    def submitted() -> int:
        return engine.stats.submitted

    if not faulted:
        return Cell(
            ofc.platform, ofc.store, ofc, lambda: engine.run(size["span_s"]), submitted
        )

    schedule = fault_schedule(
        size, ofc.backend.node_ids, chaos_targets(ofc.backend), ofc.kernel.now
    )
    facts = {
        "crashes_scheduled": _crash_restart_pairs(schedule),
        "episodes_scheduled": _episodes(schedule),
    }
    injector = FaultInjector(ofc, schedule)

    def measure() -> None:
        injector.start()
        engine.run(size["span_s"])
        kernel = ofc.kernel
        kernel.run(until=max(kernel.now, schedule.duration) + SETTLE_S)
        kernel.run_until(kernel.process(ofc.backend.repair()))
        recorder.violations = check_history(recorder.ops, ofc)
        facts["violations"] = len(recorder.violations)

    return Cell(ofc.platform, ofc.store, ofc, measure, submitted, facts)


def _crash_restart_pairs(schedule) -> int:
    return min(
        sum(1 for e in schedule.events if e.kind == "crash"),
        sum(1 for e in schedule.events if e.kind == "restart"),
    )


def _episodes(schedule) -> int:
    return sum(1 for e in schedule.events if e.duration > 0)


#: What a fault schedule must hold for the cell to exercise recovery.
MIN_CRASH_RESTARTS = 1
MIN_EPISODES = 3


def fault_schedule(size: Dict[str, Any], nodes, targets, start_at: float):
    """The fault scenario: the first of ``chaos_schedule(DATASET_SEED *
    1000 + k, ...)``, k = 0, 1, ..., that holds a crash with its restart
    and three episodes.  A short span (``--smoke``) leaves some raw seeds
    without a crash, and a cell that never crashes a node does not
    measure recovery."""
    for attempt in range(1000):
        schedule = chaos_schedule(
            DATASET_SEED * 1000 + attempt,
            size["span_s"],
            nodes,
            intensity=size["intensity"],
            targets=targets,
            start_at=start_at,
        )
        if (
            _crash_restart_pairs(schedule) >= MIN_CRASH_RESTARTS
            and _episodes(schedule) >= MIN_EPISODES
        ):
            return schedule
    raise RuntimeError(f"no usable fault schedule for a {size['span_s']} s span")


BUILDERS: Dict[str, Callable[[int, Dict[str, Any]], Cell]] = {
    "functions_read": partial(_faasload_cell, system="ofc", apps=FIG9_FUNCTIONS),
    "swift_baseline": partial(_faasload_cell, system="swift", apps=FIG9_FUNCTIONS),
    "tenants_pressure": partial(_tenant_cell, faulted=False),
    "pipelines_ephemeral": partial(
        _faasload_cell, system="ofc", apps=tuple(PIPELINE_SIZES)
    ),
    "chaos_faulted": partial(_tenant_cell, faulted=True),
}


# -- model counters ------------------------------------------------------------

#: per-layer name -> the ``collected`` counters it sums, as
#: (collector, key) pairs.  Names ending in ``_mb`` are byte counters.
COUNTERS: Dict[str, List[tuple]] = {
    "faas.cold_starts": [("invokers", "cold_starts")],
    "faas.capacity_rejections": [("invokers", "capacity_rejections")],
    "faas.oom_kills": [("invokers", "oom_kills")],
    "core.hits_local": [("rclib", "hits_local")],
    "core.hits_remote": [("rclib", "hits_remote")],
    "core.misses": [("rclib", "misses")],
    "core.writes_cached": [("rclib", "writes_cached")],
    "core.shadow_writes": [("rclib", "shadow_writes")],
    "core.degraded_ops": [
        ("rclib", "degraded_reads"),
        ("rclib", "degraded_writes"),
        ("rclib", "bypass_reads"),
        ("rclib", "bypass_writes"),
    ],
    "core.scale_ups": [("ofc", "scale_ups")],
    "core.scale_downs": [
        ("ofc", "scale_downs_plain"),
        ("ofc", "scale_downs_migration"),
        ("ofc", "scale_downs_eviction"),
    ],
    "core.evictions_pressure": [("ofc", "evictions_pressure")],
    "core.persist_completed": [("persistor", "completed")],
    "core.persist_retries": [("persistor", "retries")],
    "core.persist_gave_up": [("persistor", "gave_up")],
    "core.intermediates_removed": [("ofc", "intermediate_objects_removed")],
    "core.ephemeral_mb": [("rclib", "ephemeral_bytes")],
    "kvcache.puts": [("kvcache", "puts")],
    "kvcache.gets": [("kvcache", "gets_local"), ("kvcache", "gets_remote")],
    "kvcache.deletes": [("kvcache", "deletes")],
    "kvcache.migrations": [("kvcache", "migrations")],
    "kvcache.migrated_mb": [("kvcache", "migrated_bytes")],
    "kvcache.recovered_objects": [("kvcache", "recovered_objects")],
    "kvcache.lost_objects": [("kvcache", "lost_objects")],
    "storage.gets": [("rsds", "gets")],
    "storage.puts": [("rsds", "puts")],
    "storage.mb_read": [("rsds", "bytes_read")],
    "storage.mb_written": [("rsds", "bytes_written")],
    "storage.unavailable_errors": [("rsds", "unavailable_errors")],
    "checks.ops_recorded": [("checks", "ops")],
    "checks.violations": [("checks", "violations_total")],
    "faults.crashes": [("faults", "crashes")],
    "faults.episodes": [
        ("faults", "outages"),
        ("faults", "brownouts"),
        ("faults", "slow_network_episodes"),
        ("faults", "bypass_episodes"),
    ],
}
_BYTE_COUNTERS = {
    "core.ephemeral_mb", "kvcache.migrated_mb", "storage.mb_read",
    "storage.mb_written",
}
def collect(cell: Cell) -> Dict[str, Dict[str, Any]]:
    """The deployment's ``collected`` counters.  Stock OpenWhisk has no
    registry: its invoker and store counters are read directly, and the
    cache layers' collectors are simply not there."""
    if cell.ofc is not None:
        return cell.ofc.obs.snapshot()["collected"]
    invokers: Dict[str, float] = {}
    for invoker in cell.platform.invokers:
        for key, value in vars(invoker.stats).items():
            invokers[key] = invokers.get(key, 0) + value
    return {"invokers": invokers, "rsds": cell.store.stats.snapshot()}


def _read(collected: Dict[str, Dict[str, Any]], collector: str, key: str):
    value = collected.get(collector, {}).get(key)
    return value if isinstance(value, (int, float)) else None


def counter_deltas(before, after) -> Dict[str, Any]:
    """Model counters over the measured window.  A counter the program no
    longer publishes is listed under ``absent`` and reads 0; a collector
    the deployment does not have (no cache on stock OpenWhisk, no fault
    injector on a clean cell) reads 0 without being listed."""
    absent: List[str] = []

    def delta(collector: str, key: str) -> float:
        end = _read(after, collector, key)
        if end is None:
            if collector in after:
                absent.append(f"{collector}.{key}")
            return 0.0
        return end - (_read(before, collector, key) or 0)

    counters: Dict[str, float] = {}
    for name, parts in COUNTERS.items():
        total = sum(delta(collector, key) for collector, key in parts)
        counters[name] = total / MB if name in _BYTE_COUNTERS else total
    good = delta("table2", "good_predictions")
    bad = delta("table2", "bad_predictions")
    counters["core.bad_prediction_share"] = bad / (good + bad) if good + bad else 0.0
    return {
        "counters": counters,
        "absent": sorted(set(absent)),
        "persist_scheduled": delta("persistor", "scheduled"),
    }


# -- the child -------------------------------------------------------------------


def _mean_ms(values: List[float]) -> float:
    return 1e3 * float(np.mean(values)) if values else 0.0


def run_cell(
    workload: str, seed: int, smoke: bool, traced: bool, spawned_at: float
) -> Dict[str, Any]:
    """Build and measure one cell in this process.  ``spawned_at`` is the
    parent's ``time.time()`` just before it started this process: set-up
    is everything from there (interpreter start and imports included) to
    the start of the measured phase.  Host times are reported raw and
    scaled to the reference speed (see :mod:`perf.calibration`)."""
    reset_id_counters()
    model_cache.clear()
    size = sizes_for(workload, smoke)
    around_setup = Calibration()
    around_setup.burst()
    cell = BUILDERS[workload](seed, size)
    around_setup.burst()
    raw_setup_s = time.time() - spawned_at - around_setup.seconds
    setup_s = raw_setup_s * around_setup.scale()

    records: List[Any] = []
    cell.platform.completion_listeners.append(records.append)
    before = collect(cell)
    # Untraced cells interleave the host-speed reference with the load;
    # the traced cell does not, so its profile holds the program only.
    reference = None if traced else Calibration()
    if reference is not None:
        slices = SLICES // 10 if smoke else SLICES
        cell.platform.kernel.process(reference.ticker(size["span_s"], slices))
    profiler = attribution.start() if traced else None
    started = perf_counter()
    cell.measure()
    raw_wall_s = perf_counter() - started
    profile = attribution.stop(profiler) if traced else None
    after = collect(cell)
    wall_s = raw_wall_s
    if reference is not None:
        raw_wall_s -= reference.seconds
        wall_s = raw_wall_s * reference.scale()

    ok = [r for r in records if r.status == "ok"]
    durations = np.array([r.duration for r in ok], dtype=np.float64)
    digest = hashlib.sha256()
    for r in records:
        digest.update(
            repr(
                (
                    r.request.tenant, r.request.function, r.status,
                    r.submitted_at, r.finished_at, r.cold_start,
                )
            ).encode()
        )
    result: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "size": size,
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "wall_s": wall_s,
        "raw_wall_s": raw_wall_s,
        "calibration_s": reference.seconds if reference is not None else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "submitted": cell.submitted(),
        "delivered": len(records),
        "ok": len(ok),
        "failed": len(records) - len(ok),
        "cold_starts": sum(1 for r in records if r.cold_start),
        "latency_samples": len(ok),
        "sim_latency_p50_ms": (
            1e3 * float(np.percentile(durations, 50)) if len(ok) else 0.0
        ),
        "sim_latency_p95_ms": (
            1e3 * float(np.percentile(durations, 95)) if len(ok) else 0.0
        ),
        "sim_exec_mean_ms": _mean_ms([r.execution_time for r in ok]),
        "sim_data_access_mean_ms": _mean_ms(
            [r.phases.extract + r.phases.load for r in ok]
        ),
        "fingerprint": digest.hexdigest(),
        "facts": cell.facts,
        "listener": {
            "faas.retries_per_invocation": (
                sum(r.retries for r in records) / len(records) if records else 0.0
            ),
            "phase.queue_ms_mean": _mean_ms(
                [r.started_at - r.submitted_at for r in ok]
            ),
            "phase.extract_ms_mean": _mean_ms([r.phases.extract for r in ok]),
            "phase.transform_ms_mean": _mean_ms([r.phases.transform for r in ok]),
            "phase.load_ms_mean": _mean_ms([r.phases.load for r in ok]),
        },
    }
    result.update(counter_deltas(before, after))
    if profile is not None:
        result["profile"] = profile
    return result


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((argv or sys.argv[1:])[0])
    result = run_cell(
        spec["workload"],
        int(spec["seed"]),
        bool(spec["smoke"]),
        bool(spec["traced"]),
        float(spec["spawned_at"]),
    )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
