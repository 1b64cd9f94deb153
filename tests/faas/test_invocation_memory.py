"""What a completed stock invocation keeps alive.

The perf harness keeps every record it is handed, and the RSDS keeps
every output.  Per completed invocation on OWK-Swift that is the
record (request, phases, output refs), the output's stored object,
metadata and name, and its slot in the bucket: about 1,120 B, measured
by tracemalloc over a FaaSLoad run whose sandboxes are already warm.

It was about 1,430 B while every record held an empty ``features`` dict
and an ``output_refs`` list, every request a fresh ``args`` dict, and
every output an empty ``user_meta`` dict of its own.
"""

import gc
import tracemalloc

from repro.bench.envs import build_owk_swift_env
from repro.workloads.faasload import FaaSLoad, TenantSpec

#: Bytes kept per completed invocation (record plus RSDS output).
KEPT_PER_INVOCATION = 1_275


def test_a_completed_stock_invocation_keeps_at_most_1275_bytes():
    env = build_owk_swift_env(seed=0)
    load = FaaSLoad(env.kernel, env.platform, env.store, truth_seed=0)
    load.prepare(
        [
            TenantSpec(function, function, mean_interval_s=1.0, n_inputs=2)
            for function in ("wand_blur", "wand_sepia", "wand_resize", "wand_edge")
        ]
    )
    kept = []
    env.platform.completion_listeners.append(kept.append)
    load.run(30.0)  # sandboxes, buckets and caches warm
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
    completed = len(kept) - warm
    assert completed > 1000
    assert all(record.status == "ok" for record in kept)
    per_invocation = (after - before) / completed
    assert per_invocation <= KEPT_PER_INVOCATION, per_invocation
