"""The seeded exactness gate: nothing simulated moved.

Twenty Figure 7 headlines (2 functions x 2 input sizes x 5
configurations, total seconds) and sixteen seeded workload counters,
pinned as literals and compared with ``==``.  Everything here is
simulated and seeded, so an unchanged tree reproduces every value bit
for bit.  A change that moves one on purpose edits its literal and says
why in its commit message.
"""

from dataclasses import replace

from repro.bench.etl import run_fig7
from repro.bench.grid import (
    run_cell,
    TenantCell,
    TENANTS_CACHE_CAP_MB,
    TENANTS_NODE_MB,
)
from repro.sim.latency import KB
from repro.workloads.functions import FIGURE7_FUNCTIONS
from repro.workloads.tenants import (
    MergedArrivalStream,
    synthesize_tenants,
    TenantWorkloadConfig,
)

#: "workload/input size/config" -> Figure 7 total (s).
HEADLINES = {
    "wand_blur/131072/OFC-LH": 0.06841118688526548,
    "wand_blur/131072/OFC-M": 0.10657824825524709,
    "wand_blur/131072/OFC-RH": 0.07051325787994589,
    "wand_blur/131072/OWK-Redis": 0.05734442337137158,
    "wand_blur/131072/OWK-Swift": 0.1954839428003552,
    "wand_blur/16384/OFC-LH": 0.032082539040916846,
    "wand_blur/16384/OFC-M": 0.06976870844696437,
    "wand_blur/16384/OFC-RH": 0.03409049461980196,
    "wand_blur/16384/OWK-Redis": 0.020960023879355583,
    "wand_blur/16384/OWK-Swift": 0.1582513654224632,
    "wand_resize/131072/OFC-LH": 0.03482035559610064,
    "wand_resize/131072/OFC-M": 0.07301199080053533,
    "wand_resize/131072/OFC-RH": 0.03692775545071303,
    "wand_resize/131072/OWK-Redis": 0.023664046548231732,
    "wand_resize/131072/OWK-Swift": 0.1633680998700181,
    "wand_resize/16384/OFC-LH": 0.025258376139291827,
    "wand_resize/16384/OFC-M": 0.06294761727464615,
    "wand_resize/16384/OFC-RH": 0.02726813132685557,
    "wand_resize/16384/OWK-Redis": 0.014124667785984923,
    "wand_resize/16384/OWK-Swift": 0.15161157606569176,
}

#: Seeded workload counters.  ``faults/cell_*`` come from a small
#: faulted cell (crashes, RSDS episodes, history recorder); its roomy
#: cache never cleans its log, so a denser sibling, tight enough that
#: the cache hands memory back, pins the summed ``LogStats``: what the
#: cleaner picks and relocates moves even when an op history survives.
#: ``quota/*`` pin the two quota rules: the dense cell under ``static``
#: (admission and the over-quota reclaim order under shrink pressure),
#: and a capped ``proportional`` cell long enough for two eviction
#: sweeps (usage resync and demand decay).
COUNTERS = {
    "faults/cell_completed": 112,
    "faults/cell_failed": 1,
    "faults/cell_ops": 227,
    "faults/cell_violations": 0,
    "faults/dense_cell_log_cleanings": 483,
    "faults/dense_cell_log_relocated_bytes": 196647321,
    "faults/dense_cell_log_segments_freed": 65,
    "quota/proportional_completed": 4208,
    "quota/proportional_evictions": 2796,
    "quota/proportional_rejections": 1290,
    "quota/static_dense_completed": 969,
    "quota/static_dense_failed": 326,
    "quota/static_dense_log_cleanings": 298,
    "quota/static_dense_log_relocated_bytes": 147128320,
    "quota/static_dense_rejections": 6,
    "tenants/arrivals_200t_1h": 15362,
}


def _measure():
    rows = run_fig7(FIGURE7_FUNCTIONS[:2], sizes=(16 * KB, 128 * KB))
    measured = {f"{r.workload}/{r.input_size}/{r.config}": r.total_s for r in rows}
    tenants = TenantWorkloadConfig(n_tenants=200, mean_interval_s=60.0, seed=0)
    stream = MergedArrivalStream(synthesize_tenants(tenants), deadline=3600.0)
    measured["tenants/arrivals_200t_1h"] = sum(1 for _ in stream)
    cell = TenantCell(
        intensity="medium",
        n_tenants=24,
        mean_interval_s=6.0,
        duration_s=20.0,
        seed=11,
        warmup_s=10.0,
    )
    roomy = run_cell(cell)
    dense = replace(cell, n_tenants=120, mean_interval_s=3.0)
    static = run_cell(replace(dense, quota_policy="static"))
    proportional = run_cell(
        TenantCell(
            n_tenants=60,
            quota_policy="proportional",
            duration_s=600,
            mean_interval_s=10,
            seed=3,
            warmup_s=60,
            node_mb=TENANTS_NODE_MB,
            cache_cap_mb=TENANTS_CACHE_CAP_MB,
        )
    )
    dense = run_cell(dense).log_stats
    measured.update(
        {
            "faults/cell_ops": roomy.ops,
            "faults/cell_completed": roomy.completed,
            "faults/cell_failed": roomy.failed,
            "faults/cell_violations": roomy.violations_total,
            "faults/dense_cell_log_cleanings": dense["cleanings"],
            "faults/dense_cell_log_segments_freed": dense["segments_freed"],
            "faults/dense_cell_log_relocated_bytes": dense["relocated_bytes"],
            "quota/static_dense_completed": static.completed,
            "quota/static_dense_failed": static.failed,
            "quota/static_dense_rejections": static.quota_rejections,
            "quota/static_dense_log_cleanings": static.log_stats["cleanings"],
            "quota/static_dense_log_relocated_bytes": (
                static.log_stats["relocated_bytes"]
            ),
            "quota/proportional_completed": proportional.completed,
            "quota/proportional_rejections": proportional.quota_rejections,
            "quota/proportional_evictions": proportional.cache_evictions,
        }
    )
    return measured


def test_seeded_values_equal_the_pinned_literals():
    pinned = {**HEADLINES, **COUNTERS}
    measured = _measure()
    drift = [
        f"{key}: pinned {pinned.get(key)!r}, measured {measured.get(key)!r}"
        for key in sorted(pinned.keys() | measured.keys())
        if pinned.get(key) != measured.get(key)
    ]
    assert not drift, "\n".join(drift)
