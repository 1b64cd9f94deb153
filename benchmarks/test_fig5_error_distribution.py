"""Figure 5: distribution of J48 prediction errors at 16 MB intervals."""

from benchmarks.conftest import draw


def test_fig5_error_distribution(benchmark):
    result = draw(benchmark, "fig5_error_distribution")
    # Paper: 90 % of overpredictions within 3 intervals of the truth.
    assert result.over_within_3_intervals > 0.80
    # Mean waste stays small (paper: 26.8 MB).
    assert result.mean_waste_mb < 60.0
    # Errors concentrate near zero.
    near_zero = sum(
        count
        for offset, count in result.offset_histogram.items()
        if abs(offset) <= 1
    )
    total = sum(result.offset_histogram.values())
    assert near_zero / total > 0.7
