"""Tests for pipeline apps and the FaaSLoad injector."""

import numpy as np
import pytest

from repro.faas import FaaSPlatform, PlatformConfig
from repro.sim import Kernel
from repro.sim.latency import KB, MB
from repro.storage import ObjectStore, SWIFT_PROFILE
from repro.workloads import FaaSLoad, MediaCorpus, TenantProfile, TenantSpec
from repro.workloads.faasload import booked_memory_for, estimate_max_footprint_mb
from repro.workloads.functions import get_function_model
from repro.workloads.pipelines import ALL_PIPELINES, get_pipeline_app


@pytest.fixture()
def env():
    kernel = Kernel()
    store = ObjectStore(kernel, profile=SWIFT_PROFILE)
    store.rng = None
    store.create_bucket("inputs")
    store.create_bucket("outputs")
    platform = FaaSPlatform(
        kernel, store, PlatformConfig(node_memory_mb=16384)
    )
    return kernel, store, platform


def run_app(kernel, store, platform, app_name, total_size):
    app = get_pipeline_app(app_name)
    app.register(platform, tenant="t0")
    corpus = MediaCorpus(np.random.default_rng(5))
    refs = kernel.run_until(
        kernel.process(app.prepare_inputs(store, corpus, total_size))
    )
    process = kernel.process(
        platform.invoke_pipeline(app.pipeline, tenant="t0", input_refs=refs)
    )
    return kernel.run_until(process)


@pytest.mark.parametrize("app_name", sorted(ALL_PIPELINES))
def test_all_pipelines_run_to_completion(env, app_name):
    kernel, store, platform = env
    record = run_app(kernel, store, platform, app_name, 8 * MB)
    assert record.status == "ok"
    assert record.duration > 0
    split = record.phase_split()
    assert split.total == pytest.approx(
        sum(s.wall_time for s in record.stage_records), rel=0.01
    )


def test_map_reduce_fans_out_per_chunk(env):
    kernel, store, platform = env
    record = run_app(kernel, store, platform, "map_reduce", 10 * MB)
    split_stage, map_stage, reduce_stage = record.stage_records
    assert len(split_stage.records) == 1
    assert len(map_stage.records) == 5  # 10 MB / 2 MB chunks
    assert len(reduce_stage.records) == 1


def test_this_fans_out_per_segment(env):
    kernel, store, platform = env
    record = run_app(kernel, store, platform, "THIS", 16 * MB)
    decode_stage = record.stage_records[0]
    assert len(decode_stage.records) == 4  # 16 MB / 4 MB segments


def test_imad_is_sequential(env):
    kernel, store, platform = env
    record = run_app(kernel, store, platform, "IMAD", 2 * MB)
    assert [len(s.records) for s in record.stage_records] == [1, 1, 1, 1]


def test_pipeline_writes_final_output(env):
    kernel, store, platform = env
    record = run_app(kernel, store, platform, "image_processing", 512 * KB)
    final_refs = record.stage_records[-1].records[0].output_refs
    assert len(final_refs) == 1
    bucket, name = final_refs[0].split("/", 1)
    assert store.contains(bucket, name)


# -- FaaSLoad ----------------------------------------------------------------


def test_booked_memory_profiles():
    assert booked_memory_for(TenantProfile.NAIVE, 300.0) == 2048.0
    assert booked_memory_for(TenantProfile.ADVANCED, 300.0) == 300.0
    assert booked_memory_for(TenantProfile.NORMAL, 300.0) == pytest.approx(510.0)
    assert booked_memory_for(TenantProfile.NORMAL, 1500.0) == 2048.0  # clamp


def test_estimate_max_footprint_is_an_upper_envelope():
    model = get_function_model("wand_sepia")
    corpus = MediaCorpus(np.random.default_rng(0))
    descriptors = [corpus.image(256 * KB) for _ in range(5)]
    rng = np.random.default_rng(1)
    estimate = estimate_max_footprint_mb(model, descriptors, rng, samples=100)
    typical = model.footprint_mb(descriptors[0], {"threshold": 0.8})
    assert estimate >= typical * 0.95


def test_faasload_injects_and_collects(env):
    kernel, store, platform = env
    load = FaaSLoad(kernel, platform, store)
    load.prepare(
        [
            TenantSpec(
                tenant_id="tenant-a",
                workload="wand_sepia",
                profile=TenantProfile.NORMAL,
                mean_interval_s=10.0,
                input_sizes=[16 * KB, 64 * KB],
                n_inputs=4,
            ),
            TenantSpec(
                tenant_id="tenant-b",
                workload="wand_edge",
                profile=TenantProfile.NAIVE,
                mean_interval_s=10.0,
                arrival="periodic",
                n_inputs=4,
            ),
        ]
    )
    stats = load.run(duration_s=120.0)
    a, b = load.tenants
    assert a.invocations_fired > 0
    assert b.invocations_fired == 12  # periodic every 10 s in (0, 120]
    # Every fired invocation landed ok and was folded into its tenant.
    assert stats.per_tenant["tenant-a"].completed == a.invocations_fired
    assert stats.per_tenant["tenant-b"].completed == 12
    assert stats.submitted == stats.completed and stats.failed == 0
    assert a.booked_mb < 2048.0
    assert b.booked_mb == 2048.0


def test_faasload_pipeline_tenant(env):
    kernel, store, platform = env
    load = FaaSLoad(kernel, platform, store)
    load.prepare(
        [
            TenantSpec(
                tenant_id="tenant-p",
                workload="map_reduce",
                mean_interval_s=20.0,
                arrival="periodic",
                input_sizes=[4 * MB],
            )
        ]
    )
    landed = []
    platform.pipeline_listeners.append(landed.append)
    stats = load.run(duration_s=100.0)
    (runtime,) = load.tenants
    assert runtime.invocations_fired == 5  # every 20 s in (0, 100]
    assert len(landed) == 5
    assert all(p.status == "ok" for p in landed)
    # One fold per pipeline, summing its end-to-end duration.
    agg = stats.per_tenant["tenant-p"]
    assert (stats.submitted, agg.completed, agg.failed) == (5, 5, 0)
    assert agg.exec_sum_s == pytest.approx(sum(p.duration for p in landed))
