"""Figure 6: wall-clock prediction latency (the one real-time bench).

Paper: J48 median 3.19 us / p99 12.54 us at 16 MB intervals;
RandomForest median 106.29 us / p99 173.05 us.
"""

from benchmarks.conftest import draw


def test_fig6_prediction_speed(benchmark):
    results = draw(benchmark, "fig6_prediction_speed")
    j48_16 = next(
        r for r in results if r.algorithm == "J48" and r.interval_mb == 16.0
    )
    forest = next((r for r in results if r.algorithm == "RandomForest"), None)
    # J48 predictions stay well under the 1 ms critical-path budget.
    assert j48_16.median_us < 100.0
    assert j48_16.p99_us < 1000.0
    # RandomForest costs roughly an order of magnitude more (paper: ~33x).
    assert forest is not None
    assert forest.median_us > 5 * j48_16.median_us
