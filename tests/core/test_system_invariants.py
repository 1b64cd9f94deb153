"""System-wide invariants under randomized mixed workloads.

Drives OFC with a random mix of invocations, pipeline runs, external
store accesses and cache-node crashes, then checks the global
invariants the design promises:

* RSDS versioning: ``rsds_version <= version`` for every object;
* memory: every cache server's footprint fits its capacity (within one
  log segment of slack) and node accounting never goes negative beyond
  the float tolerance;
* no invocation fails while booked memory is sufficient;
* every *final* output is eventually persisted (after draining).
"""

import numpy as np
import pytest

from repro.bench.envs import build_ofc_env
from repro.faas.records import InvocationRequest
from repro.kvcache.log import SEGMENT_SIZE
from repro.sim.latency import KB
from repro.workloads.functions import get_function_model
from repro.workloads.media import MediaCorpus


def run_random_workload(seed: int, steps: int = 40):
    """Returns the deployment and every invocation record it delivered
    to its completion listeners (pipeline stages included)."""
    ofc = build_ofc_env(nodes=3, node_mb=4096, seed=seed)
    records = []
    ofc.platform.completion_listeners.append(records.append)
    model = get_function_model("wand_sepia")
    ofc.platform.register_function(model.spec(tenant="t0", booked_mb=512))
    from repro.workloads.pipelines import get_pipeline_app

    app = get_pipeline_app("image_processing")
    app.register(ofc.platform, tenant="t0")
    corpus = MediaCorpus(np.random.default_rng(seed))
    refs = []

    def upload():
        for i in range(4):
            media = corpus.image(64 * KB)
            yield from ofc.store.put(
                "inputs", f"in{i}", media, size=media.size,
                user_meta=media.features(),
            )
            refs.append(f"inputs/in{i}")

    ofc.kernel.run_until(ofc.kernel.process(upload()))
    rng = np.random.default_rng(seed + 1)
    p_refs = None
    for _step in range(steps):
        action = rng.choice(
            ["invoke", "invoke", "invoke", "pipeline", "external_read",
             "external_write", "crash", "idle"]
        )
        if action == "invoke":
            record = ofc.invoke(
                InvocationRequest(
                    function="wand_sepia",
                    tenant="t0",
                    args=model.sample_args(rng),
                    input_ref=refs[int(rng.integers(0, len(refs)))],
                )
            )
            assert record.status == "ok"
        elif action == "pipeline":
            if p_refs is None:
                p_refs = ofc.kernel.run_until(
                    ofc.kernel.process(
                        app.prepare_inputs(ofc.store, corpus, 128 * KB)
                    )
                )
            prec = ofc.invoke_pipeline(
                app.pipeline, tenant="t0", input_refs=p_refs
            )
            assert prec.status == "ok"
        elif action == "external_read":
            ref = refs[int(rng.integers(0, len(refs)))]
            bucket, name = ref.split("/", 1)

            def reader(bucket=bucket, name=name):
                obj = yield from ofc.store.get(bucket, name)
                return obj

            obj = ofc.kernel.run_until(ofc.kernel.process(reader()))
            assert obj.payload is not None  # inputs are always whole
        elif action == "external_write":
            ref = refs[int(rng.integers(0, len(refs)))]
            bucket, name = ref.split("/", 1)
            media = corpus.image(64 * KB)

            def writer(bucket=bucket, name=name, media=media):
                yield from ofc.store.put(
                    bucket, name, media, size=media.size,
                    user_meta=media.features(),
                )

            ofc.kernel.run_until(ofc.kernel.process(writer()))
        elif action == "crash":
            node = f"w{int(rng.integers(0, 3))}"
            ofc.cluster.crash(node)
            ofc.kernel.run_until(ofc.kernel.process(ofc.cluster.recover(node)))
            ofc.cluster.server(node).restart()
        else:
            ofc.kernel.run(until=ofc.kernel.now + float(rng.uniform(1, 60)))
    ofc.kernel.run(until=ofc.kernel.now + 30.0)  # drain persistors
    return ofc, records


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_invariants_hold_under_random_workload(seed):
    ofc, records = run_random_workload(seed)

    # 1. Versioning invariant on every RSDS object.
    for bucket_name, bucket in ofc.store._buckets.items():
        for name, obj in bucket.objects.items():
            assert obj.meta.rsds_version <= obj.meta.version, (
                bucket_name, name,
            )

    # 2. Cache servers never exceed capacity beyond log granularity.
    for server in ofc.cluster.coordinator.servers.values():
        assert server.used_bytes <= server.capacity + SEGMENT_SIZE

    # 3. Node memory accounting stays sane.
    for invoker in ofc.platform.invokers:
        assert invoker.available_mb >= -1.0
        assert invoker.committed_mb >= 0.0

    # 4. Nothing failed.
    assert records
    assert all(r.status == "ok" for r in records)

    # 5. Every final output reached the RSDS (no stale shadow remains
    # for objects absent from the cache).
    for record in records:
        for ref in record.output_refs:
            bucket, name = ref.split("/", 1)
            if not ofc.store.contains(bucket, name):
                continue  # removed by a pipeline cleanup
            meta = ofc.store.peek_meta(bucket, name)
            if meta.is_shadow:
                # Payload must still live in the cache, dirty.
                cached = ofc.cluster.peek(ref)
                assert cached is not None, ref
