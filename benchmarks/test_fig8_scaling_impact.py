"""Figure 8: impact of cache scaling on wand_sepia's latency."""

from benchmarks.conftest import draw
from repro.bench.artifacts import TABLES
from repro.bench.fig8 import PAPER_MIGRATION_MS
from repro.sim.latency import KB


def test_fig8_scaling_impact(benchmark):
    rows = draw(benchmark, "fig8_scaling_impact")
    sizes = TABLES["fig8_scaling_impact"].full["sizes"]
    by = {(r.scenario, r.input_size): r for r in rows}
    # Sc0 never scales the cache down.
    for size in sizes:
        assert by[("Sc0", size)].scaling_time_s == 0.0
    # Sc1 (plain) stays in the hundreds of microseconds (paper: 289 us).
    for size in sizes:
        assert 0 < by[("Sc1", size)].scaling_time_s < 3e-3
    # Sc2 (migration) appears for the large inputs and costs single-digit
    # milliseconds that grow with the migrated volume (paper: 0.4-2.2 ms).
    big = by[("Sc2", 3072 * KB)]
    assert big.migrated
    assert 0.3e-3 < big.scaling_time_s < 20e-3
    # Sc3 (eviction, no migration target) stays near the plain cost
    # (paper: 373 us).
    sc3 = by[("Sc3", 3072 * KB)]
    assert sc3.evicted and not sc3.migrated
    assert sc3.scaling_time_s < 5e-3
    # The cgroup/docker update dominates the scaling overhead (~24 ms)
    # and execution time is essentially unaffected by the scenario.
    for size in sizes:
        base = by[("Sc0", size)].exec_time_s
        for scenario in ("Sc1", "Sc2", "Sc3"):
            assert abs(by[(scenario, size)].exec_time_s - base) < 0.6 * base


def test_migration_time_ladder(benchmark):
    ladder = draw(benchmark, "fig8_migration_ladder")
    for (mb, seconds), paper_ms in zip(ladder, PAPER_MIGRATION_MS):
        assert abs(seconds * 1e3 - paper_ms) / paper_ms < 0.5
