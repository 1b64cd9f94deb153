"""Instrumentation smoke tests: spans and registry on a live system."""

import numpy as np
import pytest

from repro.core import OFCPlatform
from repro.faas.platform import PlatformConfig
from repro.faas.records import InvocationRequest
from repro.obs import (
    enable_tracing,
    merged_summary,
    NULL_TRACER,
    reset_tracing,
)
from repro.sim.latency import KB
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
    assert system.kernel.tracer is NULL_TRACER
    run_some_invocations(system, n=2)
    assert system.kernel.tracer.spans == []


def test_enabled_tracing_captures_invocation_lifecycle():
    enable_tracing()
    system = build_system()
    assert system.kernel.tracer is not NULL_TRACER

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
    assert all(s.finished and s.labels["status"] == "ok"
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
    from repro.faas import reset_id_counters
    from repro.sim import Kernel
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
        reset_id_counters()
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
    assert plain.kernel.tracer is NULL_TRACER
    assert plain_records, "cell completed no invocations"
    assert traced_records == plain_records
    assert traced.kernel.now == plain.kernel.now
    # No component forks on tracing: both runs start the same processes.
    assert len(traced_procs) == len(plain_procs)
    tracer = traced.kernel.tracer
    finished = [p for p in traced_procs if p.processed]
    assert 0 < len(finished) < len(traced_procs)  # some loops never end
    assert tracer.count("sim.process") == len(finished)
