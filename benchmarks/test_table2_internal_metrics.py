"""Table 2: OFC-internal metrics during the macro workloads."""

import pytest

from benchmarks.conftest import draw
from repro.bench.artifacts import MACRO_S


@pytest.mark.parametrize("profile", ["normal", "advanced", "naive"])
def test_table2_internal_metrics(benchmark, profile):
    table2 = draw(benchmark, f"table2_{profile}").table2

    # Line 9 of Table 2: zero failed invocations in every profile.
    assert table2["failed_invocations"] == 0
    # Lines 7-8: predictions are overwhelmingly good.
    good, bad = table2["good_predictions"], table2["bad_predictions"]
    assert good > 0
    assert good / max(1, good + bad) > 0.9
    # Line 10: high cache hit ratio.
    assert table2["cache_hit_ratio"] > 0.6
    # Lines 1-6: scaling happens constantly yet costs almost nothing.
    scale_events = (
        table2["scale_ups"]
        + table2["scale_downs_plain"]
        + table2["scale_downs_migration"]
        + table2["scale_downs_eviction"]
    )
    assert scale_events > 20
    total_scale_time = table2["scale_up_time_s"] + table2["scale_down_time_s"]
    assert total_scale_time < 0.02 * MACRO_S  # negligible vs the run
    # Line 11: pipelines generate ephemeral data that the cache absorbs.
    assert table2["ephemeral_data_bytes"] > 0
