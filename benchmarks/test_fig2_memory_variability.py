"""Figure 2: memory usage vs input size and vs the sigma argument."""

from benchmarks.conftest import draw


def test_fig2_memory_variability(benchmark):
    result = draw(benchmark, "fig2_memory_variability")
    memories = [m for _s, m in result.by_size]
    # Paper's claim: neither byte size nor sigma alone pins down memory.
    assert result.spread_at_fixed_size_mb > 30.0
    assert result.spread_at_fixed_sigma_mb > 100.0
    # Memory spans a wide range overall (Figure 2 shows ~0-896 MB).
    assert max(memories) > 4 * min(memories)
