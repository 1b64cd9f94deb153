"""What a completed OFC invocation keeps alive beyond a stock one.

The twin of ``tests/faas/test_invocation_memory.py`` on OFC: pretrained
FaaSLoad tenants (the perf cells' set-up), every record kept, and the
RSDS keeping every output (written back by the persistor).  Per
completed invocation OFC keeps what OWK-Swift keeps (the record, the
output's stored object, metadata and name) plus its feature row, the
persistor's and the cache's share, and what the trainer curates.

The test measures both platforms on the same four functions in one
interpreter and bounds the difference, so that what both keep alike,
at its size on the CPython that runs the test, cancels.  By tracemalloc over a run whose
sandboxes are already warm (CPython 3.11): stock about 1,130 B, OFC
about 1,405 B, a difference of about 275 B.  It was about 390 B while
every invocation built a features dict of its own (OFC about 1,520 B).
Equal rows are one interned dict now; ``wand_sepia`` draws a
continuous argument, so about a quarter of these invocations still
bring a row (and its intern-table entry) each.
"""

import gc
import tracemalloc

from repro.bench import model_cache
from repro.bench.envs import build_ofc_env, build_owk_swift_env, pretrain_function
from repro.workloads.faasload import FaaSLoad, TenantSpec

#: Bytes an OFC invocation keeps beyond a stock one.
KEPT_BEYOND_STOCK = 325

FUNCTIONS = ("wand_blur", "wand_sepia", "wand_resize", "wand_edge")


def _kept(env, pretrained: bool):
    """The records a 300 s FaaSLoad run completes on ``env`` after a
    30 s warm-up, and the bytes it keeps per completed invocation."""
    load = FaaSLoad(env.kernel, env.platform, env.store, truth_seed=0)
    load.prepare(
        [
            TenantSpec(function, function, mean_interval_s=1.0, n_inputs=2)
            for function in FUNCTIONS
        ]
    )
    if pretrained:
        for runtime in load.tenants:
            pretrain_function(
                env, runtime.model, runtime.descriptors, tenant=runtime.spec.tenant_id
            )
    kept = []
    env.platform.completion_listeners.append(kept.append)
    load.run(30.0)  # sandboxes, buckets, caches and rows warm
    warm = len(kept)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        load.run(300.0)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    records = kept[warm:]
    assert len(records) > 1000
    assert all(record.status == "ok" for record in records)
    return records, (after - before) / len(records)


def test_a_completed_ofc_invocation_keeps_at_most_325_bytes_beyond_stock():
    _records, stock = _kept(build_owk_swift_env(seed=0), pretrained=False)
    model_cache.clear()
    try:
        records, ofc = _kept(build_ofc_env(seed=0), pretrained=True)
    finally:
        model_cache.clear()
    assert all(record.features for record in records)
    # Equal rows are one dict: far fewer rows than invocations.
    assert len({id(record.features) for record in records}) < len(records) / 2
    assert ofc - stock <= KEPT_BEYOND_STOCK, (ofc, stock)
