"""§7.1.1: J48 as the cache-benefit classifier.

Paper: precision 98.8 %, recall 98.6 %, F-measure 98.7 %.
"""

from benchmarks.conftest import draw


def test_cache_benefit_model(benchmark):
    result = draw(benchmark, "cache_benefit_model")
    # The paper reports ~98.7 %; our synthetic workloads put more mass
    # near the 0.5 E+L-dominance boundary, so the bar is slightly lower
    # (shape: the classifier is strongly better than chance and usable).
    assert result["precision_pct"] > 85.0
    assert result["recall_pct"] > 85.0
    assert result["f_measure_pct"] > 85.0
