"""Tests for rclib (proxy), shadow objects and the persistor."""

from repro.sim.latency import MB
from tests.core.conftest import deploy, invoke, seed_images


def test_first_read_misses_then_hits(ofc):
    deploy(ofc)
    refs = seed_images(ofc, n=1)
    first = invoke(ofc, ref=refs[0])
    second = invoke(ofc, ref=refs[0])
    assert first.status == second.status == "ok"
    assert ofc.rclib_stats.misses == 1
    assert ofc.rclib_stats.hits_local + ofc.rclib_stats.hits_remote >= 1
    # The cache hit makes Extract collapse.
    assert second.phases.extract < first.phases.extract / 10


def test_write_creates_shadow_then_persists(ofc):
    deploy(ofc)
    refs = seed_images(ofc, n=1)
    record = invoke(ofc, ref=refs[0])
    out_bucket, out_name = record.output_refs[0].split("/", 1)
    meta = ofc.store.peek_meta(out_bucket, out_name)
    # Immediately after the invocation the RSDS holds a shadow…
    assert ofc.rclib_stats.shadow_writes >= 1
    # …and after the persistor runs, the payload is in the RSDS.
    ofc.kernel.run(until=ofc.kernel.now + 5.0)
    meta = ofc.store.peek_meta(out_bucket, out_name)
    assert not meta.is_shadow
    assert ofc.persistor.stats.completed >= 1


def test_final_output_discarded_from_cache_after_writeback(ofc):
    deploy(ofc)
    refs = seed_images(ofc, n=1)
    record = invoke(ofc, ref=refs[0])
    key = record.output_refs[0]
    ofc.kernel.run(until=ofc.kernel.now + 5.0)
    assert not ofc.cluster.contains(key)  # §6.3: finals leave the cache


def test_load_phase_is_fast_with_cache(ofc):
    """L = shadow write (~11 ms) + cache put, far below a Swift PUT."""
    deploy(ofc)
    refs = seed_images(ofc, n=1)
    record = invoke(ofc, ref=refs[0])
    assert record.phases.load < 0.03
    assert record.phases.load > 0.008


def test_oversized_object_bypasses_cache(ofc):
    deploy(ofc, fn_name="wand_resize", booked=2048.0)
    refs = seed_images(ofc, n=1, size=9 * MB)
    record = invoke(
        ofc, fn_name="wand_resize", ref=refs[0], args={"scale": 1.5}
    )
    # Output is ~20 MB: above the 10 MB cacheable limit -> direct write.
    assert record.status == "ok"
    assert ofc.rclib_stats.writes_direct >= 1
    out_bucket, out_name = record.output_refs[0].split("/", 1)
    assert not ofc.cluster.contains(record.output_refs[0])
    assert not ofc.store.peek_meta(out_bucket, out_name).is_shadow


def test_should_cache_false_skips_cache(ofc):
    deploy(ofc)
    refs = seed_images(ofc, n=1)

    def no_cache_policy(request, spec, record):
        from repro.faas.platform import SizingDecision

        return SizingDecision(
            memory_mb=spec.booked_memory_mb, should_cache=False
        )
        yield  # pragma: no cover

    ofc.platform.sizing_policy = no_cache_policy
    record = invoke(ofc, ref=refs[0])
    assert record.status == "ok"
    assert ofc.rclib_stats.uncached_reads == 1
    assert ofc.rclib_stats.misses == 0
    assert not ofc.cluster.contains(refs[0])


def test_external_read_blocks_until_persisted(ofc):
    """The §6.2 webhook: a non-FaaS GET sees the latest payload."""
    deploy(ofc)
    refs = seed_images(ofc, n=1)
    record = invoke(ofc, ref=refs[0])
    out_bucket, out_name = record.output_refs[0].split("/", 1)

    def external_get():
        obj = yield from ofc.store.get(out_bucket, out_name)  # external!
        return obj

    obj = ofc.kernel.run_until(ofc.kernel.process(external_get()))
    assert obj.payload is not None
    assert not obj.meta.is_shadow


def test_external_write_invalidates_cache(ofc):
    deploy(ofc)
    refs = seed_images(ofc, n=1)
    invoke(ofc, ref=refs[0])  # input now cached
    assert ofc.cluster.contains(refs[0])
    bucket, name = refs[0].split("/", 1)

    def external_put():
        yield from ofc.store.put(bucket, name, "new-content", size=1000)

    ofc.kernel.run_until(ofc.kernel.process(external_put()))
    assert not ofc.cluster.contains(refs[0])


def test_persistor_version_ordering(ofc):
    """An old persistor never overwrites a newer shadow version."""
    ofc.store.ensure_bucket("b")

    def scenario():
        m1 = yield from ofc.store.put(
            "b", "o", None, size=100, shadow=True, internal=True
        )
        m2 = yield from ofc.store.put(
            "b", "o", None, size=100, shadow=True, internal=True
        )
        e1 = ofc.persistor.schedule("b", "o", "v1-data", m1.version, final=False)
        e2 = ofc.persistor.schedule("b", "o", "v2-data", m2.version, final=False)
        yield e1
        yield e2

    ofc.kernel.run_until(ofc.kernel.process(scenario()))
    obj_meta = ofc.store.peek_meta("b", "o")
    assert obj_meta.rsds_version == 2
    assert ofc.persistor.stats.superseded + ofc.persistor.stats.completed == 2


def test_rclib_delete_removes_everywhere(ofc):
    deploy(ofc)
    refs = seed_images(ofc, n=1)
    record = invoke(ofc, ref=refs[0])
    assert ofc.cluster.contains(refs[0])
    bucket, name = refs[0].split("/", 1)
    client = ofc._make_data_client(ofc.platform.invokers[0], record)
    ofc.kernel.run_until(ofc.kernel.process(client.delete(bucket, name)))
    assert not ofc.cluster.contains(refs[0])
    assert not ofc.store.contains(bucket, name)


def test_ephemeral_bytes_counted_for_intermediates(ofc):
    from repro.workloads.pipelines import get_pipeline_app
    from repro.workloads.media import MediaCorpus
    import numpy as np

    app = get_pipeline_app("map_reduce")
    app.register(ofc.platform, tenant="t0")
    corpus = MediaCorpus(np.random.default_rng(2))
    refs = ofc.kernel.run_until(
        ofc.kernel.process(
            app.prepare_inputs(ofc.store, corpus, 4 * MB)
        )
    )
    prec = ofc.invoke_pipeline(app.pipeline, tenant="t0", input_refs=refs)
    assert prec.status == "ok"
    assert ofc.rclib_stats.ephemeral_bytes > 0


def test_pipeline_intermediates_removed_at_end(ofc):
    from repro.workloads.pipelines import get_pipeline_app
    from repro.workloads.media import MediaCorpus
    import numpy as np

    app = get_pipeline_app("map_reduce")
    app.register(ofc.platform, tenant="t0")
    corpus = MediaCorpus(np.random.default_rng(2))
    refs = ofc.kernel.run_until(
        ofc.kernel.process(app.prepare_inputs(ofc.store, corpus, 4 * MB))
    )
    prec = ofc.invoke_pipeline(app.pipeline, tenant="t0", input_refs=refs)
    ofc.kernel.run(until=ofc.kernel.now + 5.0)
    # No cached object of this pipeline marked intermediate remains.
    for server in ofc.cluster.coordinator.servers.values():
        for obj in server.master_objects():
            assert not (
                obj.flags.get("pipeline_id") == prec.pipeline_id
                and obj.flags.get("intermediate")
            )
    assert ofc.metrics.pipeline_cleanups >= 1
    assert ofc.metrics.intermediate_objects_removed > 0
