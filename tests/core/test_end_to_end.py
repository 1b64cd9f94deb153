"""End-to-end integration stories for the full OFC system."""

import numpy as np

from repro.bench.envs import build_ofc_env, build_owk_swift_env, pretrain_function
from repro.faas.records import InvocationRequest
from repro.sim.latency import KB
from repro.workloads.functions import get_function_model
from repro.workloads.media import MediaCorpus


def deploy_and_seed(system, platform, store, kernel, fn_name="wand_sepia",
                    n_inputs=3, seed=13, booked=512.0):
    model = get_function_model(fn_name)
    platform.register_function(model.spec(tenant="t0", booked_mb=booked))
    corpus = MediaCorpus(np.random.default_rng(seed))
    descriptors = [corpus.image(64 * KB) for _ in range(n_inputs)]
    refs = []

    def upload():
        store.ensure_bucket("inputs")
        store.ensure_bucket("outputs")
        for i, media in enumerate(descriptors):
            name = f"in{i}"
            yield from store.put(
                "inputs", name, media, size=media.size,
                user_meta=media.features(),
            )
            refs.append(f"inputs/{name}")

    kernel.run_until(kernel.process(upload()))
    return model, refs, descriptors


def drive(kernel, platform, model, refs, n=30, seed=17):
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(n):
        process = kernel.process(
            platform.invoke(
                InvocationRequest(
                    function=model.name,
                    tenant="t0",
                    args=model.sample_args(rng),
                    input_ref=refs[int(rng.integers(0, len(refs)))],
                )
            )
        )
        records.append(kernel.run_until(process))
    return records


def test_ofc_beats_swift_on_identical_workload():
    """The headline claim, end to end, same seed on both systems."""
    ofc = build_ofc_env(seed=31)
    model, refs, descriptors = deploy_and_seed(
        ofc, ofc.platform, ofc.store, ofc.kernel
    )
    pretrain_function(ofc, model, descriptors, tenant="t0", seed=31)
    ofc_records = drive(ofc.kernel, ofc.platform, model, refs)

    swift = build_owk_swift_env(seed=31)
    model2, refs2, _ = deploy_and_seed(
        swift, swift.platform, swift.store, swift.kernel
    )
    swift_records = drive(swift.kernel, swift.platform, model2, refs2)

    assert all(r.status == "ok" for r in ofc_records + swift_records)
    ofc_total = sum(r.execution_time for r in ofc_records)
    swift_total = sum(r.execution_time for r in swift_records)
    assert ofc_total < 0.6 * swift_total  # >40 % improvement
    assert ofc.rclib_stats.hit_ratio > 0.8


def test_cache_node_crash_mid_workload_is_transparent():
    """Fail-stop of one cache server: invocations keep succeeding."""
    ofc = build_ofc_env(seed=32)
    model, refs, _ = deploy_and_seed(ofc, ofc.platform, ofc.store, ofc.kernel)
    drive(ofc.kernel, ofc.platform, model, refs, n=10)
    victim = next(
        node
        for node in ("w0", "w1", "w2", "w3")
        if ofc.cluster.server(node).master_keys()
    )
    ofc.cluster.crash(victim)
    ofc.kernel.run_until(ofc.kernel.process(ofc.cluster.recover(victim)))
    records = drive(ofc.kernel, ofc.platform, model, refs, n=10, seed=18)
    assert all(r.status == "ok" for r in records)


def test_memory_pressure_forces_cache_to_yield():
    """Small nodes: sandboxes and cache fight for memory, invocations
    always win, and nothing fails."""
    ofc = build_ofc_env(nodes=2, node_mb=1400, seed=33)
    model, refs, descriptors = deploy_and_seed(
        ofc, ofc.platform, ofc.store, ofc.kernel, booked=1024.0
    )
    pretrain_function(ofc, model, descriptors, tenant="t0", seed=33)
    records = drive(ofc.kernel, ofc.platform, model, refs, n=20)
    assert all(r.status == "ok" for r in records)
    snap = ofc.table2_snapshot()
    assert snap["failed_invocations"] == 0
    # The cache had to give memory back at least once.
    assert (
        snap["scale_downs_plain"]
        + snap["scale_downs_migration"]
        + snap["scale_downs_eviction"]
    ) >= 1


def test_outputs_eventually_consistent_with_rsds():
    """Every final output ends up in the RSDS with its latest payload."""
    ofc = build_ofc_env(seed=34)
    model, refs, _ = deploy_and_seed(ofc, ofc.platform, ofc.store, ofc.kernel)
    records = drive(ofc.kernel, ofc.platform, model, refs, n=12)
    ofc.kernel.run(until=ofc.kernel.now + 10.0)  # drain persistors
    for record in records:
        for ref in record.output_refs:
            bucket, name = ref.split("/", 1)
            meta = ofc.store.peek_meta(bucket, name)
            assert not meta.is_shadow, ref


def test_pipeline_and_single_functions_share_the_cache():
    ofc = build_ofc_env(seed=35)
    model, refs, _ = deploy_and_seed(ofc, ofc.platform, ofc.store, ofc.kernel)
    from repro.workloads.pipelines import get_pipeline_app

    app = get_pipeline_app("image_processing")
    app.register(ofc.platform, tenant="t0")
    corpus = MediaCorpus(np.random.default_rng(6))
    p_refs = ofc.kernel.run_until(
        ofc.kernel.process(app.prepare_inputs(ofc.store, corpus, 256 * KB))
    )
    single = drive(ofc.kernel, ofc.platform, model, refs, n=5)
    prec = ofc.invoke_pipeline(app.pipeline, tenant="t0", input_refs=p_refs)
    assert prec.status == "ok"
    assert all(r.status == "ok" for r in single)
    assert ofc.rclib_stats.hits_local + ofc.rclib_stats.hits_remote > 0


def test_twenty_four_tenant_contention_never_fails():
    from repro.bench.macro import run_macro
    from repro.workloads.faasload import TenantProfile

    result = run_macro(
        "ofc",
        TenantProfile.NORMAL,
        duration_s=240.0,
        tenants_per_workload=3,
        node_mb=49152.0,
        seed=2,
    )
    assert result.failed_invocations == 0
    assert result.hit_ratio > 0.4
