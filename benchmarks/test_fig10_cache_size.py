"""Figure 10: evolution of OFC's total cache size over time."""

import numpy as np

from benchmarks.conftest import save_result
from repro.bench.fig10 import per_minute
from repro.bench.macro import run_macro
from repro.bench.reporting import format_table
from repro.sim.latency import GB
from repro.workloads.faasload import TenantProfile


def test_fig10_cache_size(benchmark):
    result = benchmark.pedantic(
        run_macro,
        args=("ofc", TenantProfile.NORMAL),
        kwargs={"duration_s": 900.0},
        rounds=1,
        iterations=1,
    )
    series = result.cache_series
    assert len(series) > 10
    table = format_table(
        ["minute", "cache size (GB)"],
        per_minute(series),
        title="Figure 10 — OFC cache size over time (normal profile)",
    )
    save_result("fig10_cache_size", table)
    sizes = np.array([s for _t, s in series], dtype=float)
    total_node_memory = 4 * 16384 * 1024 * 1024
    # The cache always occupies a large share of the cluster...
    assert sizes.min() > 0.5 * total_node_memory
    # ...but never exceeds what the nodes have.
    assert sizes.max() <= total_node_memory
    # And it breathes: sandbox churn makes the size fluctuate.
    assert sizes.max() - sizes.min() > 1 * GB
