"""Figure 10: evolution of OFC's total cache size over time."""

import numpy as np

from benchmarks.conftest import draw
from repro.sim.latency import GB


def test_fig10_cache_size(benchmark):
    series = draw(benchmark, "fig10_cache_size").cache_series
    assert len(series) > 10
    sizes = np.array([s for _t, s in series], dtype=float)
    total_node_memory = 4 * 16384 * 1024 * 1024
    # The cache always occupies a large share of the cluster...
    assert sizes.min() > 0.5 * total_node_memory
    # ...but never exceeds what the nodes have.
    assert sizes.max() <= total_node_memory
    # And it breathes: sandbox churn makes the size fluctuate.
    assert sizes.max() - sizes.min() > 1 * GB
