"""Figure 3: ETL phase split on an S3-profile RSDS vs a Redis IMOC."""

from benchmarks.conftest import draw
from repro.sim.latency import MB


def test_fig3a_single_stage(benchmark):
    rows = draw(benchmark, "fig3a_motivation_single")
    s3 = [r for r in rows if r.config == "s3"]
    redis = [r for r in rows if r.config == "redis"]
    # Paper: E&L is up to 97 % of total on S3 for a 128 kB image.
    assert max(r.el_fraction for r in s3) > 0.90
    # ...and negligible on the IMOC.
    assert max(r.el_fraction for r in redis) < 0.35
    # The IMOC run is massively faster end to end.
    assert all(
        s.total_s > 3 * r.total_s
        for s, r in zip(s3, redis)
        if s.input_size == r.input_size
    )


def test_fig3b_pipeline(benchmark):
    rows = draw(benchmark, "fig3b_motivation_pipeline")
    s3_30 = next(
        r for r in rows if r.config == "s3" and r.input_size == 30 * MB
    )
    redis_30 = next(
        r for r in rows if r.config == "redis" and r.input_size == 30 * MB
    )
    # Paper: E&L ~52 % of a 30 MB word count on the RSDS.
    assert 0.35 < s3_30.el_fraction < 0.75
    assert redis_30.el_fraction < 0.15
