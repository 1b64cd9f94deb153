"""Instrumentation smoke tests: spans and registry on a live system."""

import gc
import os
import sys
from functools import partial

import numpy as np
import pytest

import repro.obs
from repro.core import OFCPlatform
from repro.faas.platform import PlatformConfig
from repro.faas.records import InvocationRequest
from repro.obs import enable_tracing, merged_summary, reset_tracing
from repro.sim import Kernel
from repro.sim.latency import KB, MB
from repro.workloads.functions import get_function_model
from repro.workloads.media import MediaCorpus


@pytest.fixture(autouse=True)
def _clean_tracing():
    reset_tracing()
    yield
    reset_tracing()


def build_system():
    system = OFCPlatform(
        platform_config=PlatformConfig(node_memory_mb=4096), seed=3
    )
    system.store.create_bucket("inputs")
    system.store.create_bucket("outputs")
    system.start()
    return system


def run_some_invocations(system, n=6):
    model = get_function_model("wand_sepia")
    system.platform.register_function(
        model.spec(tenant="t0", booked_mb=512.0)
    )
    corpus = MediaCorpus(np.random.default_rng(11))
    refs = []

    def writer():
        for i in range(3):
            img = corpus.image(64 * KB)
            yield from system.store.put(
                "inputs", f"img{i}", img, size=img.size,
                user_meta=img.features(),
            )
            refs.append(f"inputs/img{i}")

    system.kernel.run_until(system.kernel.process(writer()))
    rng = np.random.default_rng(5)
    records = []
    for i in range(n):
        records.append(
            system.invoke(
                InvocationRequest(
                    function="wand_sepia",
                    tenant="t0",
                    args=model.sample_args(rng),
                    input_ref=refs[i % len(refs)],
                )
            )
        )
    return records


def test_kernel_tracer_is_null_by_default():
    system = build_system()
    assert system.kernel.tracer is None
    run_some_invocations(system, n=2)
    assert system.kernel.tracer is None


def test_enabled_tracing_captures_invocation_lifecycle():
    enable_tracing()
    system = build_system()
    assert system.kernel.tracer is not None

    records = run_some_invocations(system, n=6)
    assert all(r.status == "ok" for r in records)

    summary = merged_summary()
    assert summary["faas.invoke"]["count"] == 6
    assert summary["faas.execute"]["count"] >= 6
    assert summary["faas.compute"]["count"] >= 6
    # Every input upload and shadow write goes through the RSDS.
    assert summary["rsds.put"]["count"] >= 3
    # Invocation spans cover at least the compute time they contain.
    assert summary["faas.invoke"]["total_s"] >= summary["faas.compute"]["total_s"]

    spans = system.kernel.tracer.spans
    invoke_spans = [s for s in spans if s.name == "faas.invoke"]
    assert all(s.end is not None and s.labels["status"] == "ok"
               for s in invoke_spans)


def test_platform_obs_registry_snapshot():
    system = build_system()
    run_some_invocations(system, n=4)
    snap = system.obs.snapshot()
    collected = snap["collected"]
    rclib = collected["rclib"]
    assert rclib["hits_local"] + rclib["hits_remote"] + rclib["misses"] > 0
    assert "hit_ratio" in rclib
    assert "cache_size_final_bytes" in collected["ofc"]
    assert "cache_size_peak_bytes" in collected["ofc"]
    assert collected["invokers"]["nodes"] == len(system.platform.invokers)
    assert collected["table2"]


def _run_cell(monkeypatch, traced):
    """One seeded memory-tight multi-tenant cell; returns what the run
    did (records, clock) and every process the kernel started."""
    from dataclasses import asdict

    from repro.bench.envs import build_ofc_env
    from repro.workloads.tenants import TenantLoadEngine, TenantWorkloadConfig

    procs = []
    plain_process = Kernel.process

    def counting_process(self, generator, name=""):
        proc = plain_process(self, generator, name)
        procs.append(proc)
        return proc

    with monkeypatch.context() as patch:
        patch.setattr(Kernel, "process", counting_process)
        reset_tracing()
        if traced:
            enable_tracing()
        ofc = build_ofc_env(nodes=3, node_mb=2048.0, seed=5, keepalive_s=4.0)
        records = []
        ofc.platform.completion_listeners.append(
            lambda r: records.append(
                (
                    r.request.request_id,
                    r.node,
                    r.sandbox_id,
                    r.cold_start,
                    r.submitted_at,
                    r.started_at,
                    r.finished_at,
                    r.status,
                    asdict(r.phases),
                )
            )
        )
        workload = TenantWorkloadConfig(n_tenants=40, mean_interval_s=2.0, seed=5)
        TenantLoadEngine(ofc.kernel, ofc.platform, ofc.store, workload).run(40.0)
    return ofc, records, procs


def test_tracing_does_not_perturb_the_run(monkeypatch):
    """A traced run is the benchmarked run: same loop, same schedule —
    identical invocation records and final clock — and one
    ``sim.process`` span per process, closed when it terminates."""
    plain, plain_records, plain_procs = _run_cell(monkeypatch, traced=False)
    traced, traced_records, traced_procs = _run_cell(monkeypatch, traced=True)
    assert plain.kernel.tracer is None
    assert plain_records, "cell completed no invocations"
    assert traced_records == plain_records
    assert traced.kernel.now == plain.kernel.now
    # No component forks on tracing: both runs start the same processes.
    assert len(traced_procs) == len(plain_procs)
    tracer = traced.kernel.tracer
    finished = [p for p in traced_procs if p.processed]
    assert 0 < len(finished) < len(traced_procs)  # some loops never end
    assert tracer.summary()["sim.process"]["count"] == len(finished)


def test_table2_counts_failures_of_streamed_runs(monkeypatch):
    """Table 2 counts every failed invocation, also those a streaming
    injector fired (the platform keeps no record list to scan)."""
    ofc, records, _procs = _run_cell(monkeypatch, traced=False)
    failed = sum(1 for *_, status, _phases in records if status == "failed")
    assert failed > 0, "the memory-tight cell failed no invocation"
    assert ofc.table2_snapshot()["failed_invocations"] == failed


_OBS_DIR = os.path.dirname(repro.obs.__file__) + os.sep


def _faasload_with_a_pipeline_tenant(monkeypatch):
    from repro.bench.envs import build_ofc_env
    from repro.workloads.faasload import FaaSLoad, TenantSpec

    ofc = build_ofc_env(seed=3)
    load = FaaSLoad(ofc.kernel, ofc.platform, ofc.store)
    load.prepare(
        [
            TenantSpec("fn", "wand_sepia", mean_interval_s=5.0, n_inputs=2),
            TenantSpec(
                "mr", "map_reduce", mean_interval_s=20.0, input_sizes=[4 * MB]
            ),
        ]
    )
    load.run(duration_s=60.0)


def _crash_restart_faults_cell(monkeypatch):
    from repro.bench.grid import crash_restart_schedule, faults_cell, run_cell

    row = run_cell(faults_cell(60.0, crash_restart_schedule(60.0)))
    assert row.crashes == 1


@pytest.mark.parametrize(
    "run",
    [
        partial(_run_cell, traced=False),
        _faasload_with_a_pipeline_tenant,
        _crash_restart_faults_cell,
    ],
    ids=["tenant_cell", "faasload_map_reduce", "faults_crash_restart"],
)
def test_untraced_run_executes_no_obs_code(monkeypatch, run):
    """With tracing off, no span site calls into ``repro.obs``: a
    profiler watches every kernel dispatch (the run phase; building a
    kernel asks ``tracer_for_clock``, registering a collector reaches the
    registry, and both stay outside) for a frame of the package."""
    calls = 0
    obs_frames = set()

    def profiler(frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1
            if frame.f_code.co_filename.startswith(_OBS_DIR):
                obs_frames.add(frame.f_code.co_name)

    drain = Kernel._drain

    def profiled_drain(self, limit, awaited):
        previous = sys.getprofile()
        sys.setprofile(profiler)
        try:
            drain(self, limit, awaited)
        finally:
            sys.setprofile(previous)

    monkeypatch.setattr(Kernel, "_drain", profiled_drain)
    # An earlier test's traced deployment left suspended in a store op
    # is garbage whose collection runs the op's ``finally:
    # span.finish()``; collect it now, not inside a profiled dispatch.
    gc.collect()
    run(monkeypatch)
    assert calls, "the profiler saw no dispatch"
    assert obs_frames == set()


#: Every (collector, key) pair the repository benchmark reads from
#: ``obs.snapshot()["collected"]`` (perf/cells.py: ``COUNTERS`` and
#: ``counter_deltas``).  perf/tests sit outside tier-1, so the contract
#: is pinned here, as a literal.
BENCHMARK_READS = [
    ("invokers", "cold_starts"), ("invokers", "capacity_rejections"),
    ("invokers", "oom_kills"),
    ("rclib", "hits_local"), ("rclib", "hits_remote"), ("rclib", "misses"),
    ("rclib", "writes_cached"), ("rclib", "shadow_writes"),
    ("rclib", "degraded_reads"), ("rclib", "degraded_writes"),
    ("rclib", "bypass_reads"), ("rclib", "bypass_writes"),
    ("rclib", "ephemeral_bytes"),
    ("ofc", "scale_ups"), ("ofc", "scale_downs_plain"),
    ("ofc", "scale_downs_migration"), ("ofc", "scale_downs_eviction"),
    ("ofc", "evictions_pressure"), ("ofc", "intermediate_objects_removed"),
    ("persistor", "completed"), ("persistor", "retries"),
    ("persistor", "gave_up"), ("persistor", "scheduled"),
    ("kvcache", "puts"), ("kvcache", "gets_local"), ("kvcache", "gets_remote"),
    ("kvcache", "deletes"), ("kvcache", "migrations"),
    ("kvcache", "migrated_bytes"), ("kvcache", "recovered_objects"),
    ("kvcache", "lost_objects"),
    ("rsds", "gets"), ("rsds", "puts"), ("rsds", "bytes_read"),
    ("rsds", "bytes_written"), ("rsds", "unavailable_errors"),
    ("checks", "ops"), ("checks", "violations_total"),
    ("table2", "good_predictions"), ("table2", "bad_predictions"),
    ("faults", "crashes"), ("faults", "outages"), ("faults", "brownouts"),
    ("faults", "slow_network_episodes"), ("faults", "bypass_episodes"),
]


def test_collectors_hold_what_the_benchmark_reads():
    from repro.bench.envs import build_ofc_env
    from repro.faults import FaultInjector, FaultSchedule

    ofc = build_ofc_env()
    snap = ofc.obs.snapshot()
    assert list(snap) == ["collected"]
    assert sorted(snap["collected"]) == [
        "cache_backend", "checks", "invokers", "kvcache", "ofc", "persistor",
        "rclib", "rsds", "table2", "tenancy",
    ]
    FaultInjector(ofc, FaultSchedule([]))
    collected = ofc.obs.snapshot()["collected"]
    assert set(collected) == set(snap["collected"]) | {"faults"}
    unreadable = [
        (collector, key)
        for collector, key in BENCHMARK_READS
        if not isinstance(collected[collector].get(key), (int, float))
    ]
    assert unreadable == []
