"""Figure 6: wall-clock prediction latency (the one real-time bench).

Paper: J48 median 3.19 us / p99 12.54 us at 16 MB intervals;
RandomForest median 106.29 us / p99 173.05 us.
"""

from benchmarks.conftest import save_result
from repro.bench.fig6 import run_fig6
from repro.bench.reporting import format_table

SUBSET = [
    "wand_blur",
    "wand_sepia",
    "sharp_resize",
    "speech_recognize",
    "video_transcode",
    "text_summarize",
]


def test_fig6_prediction_speed(benchmark):
    results = benchmark.pedantic(
        run_fig6,
        kwargs={"n_samples": 250, "functions": SUBSET},
        rounds=1,
        iterations=1,
    )
    table = format_table(
        ["algorithm", "interval", "median (us)", "p99 (us)", "samples"],
        [
            (r.algorithm, f"{r.interval_mb:.0f} MB", r.median_us, r.p99_us, r.samples)
            for r in results
        ],
        title="Figure 6 — prediction time (wall clock)",
    )
    save_result("fig6_prediction_speed", table)
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
