"""A macro comparison gives the same figures serial and fanned out.

``run_macro_comparison`` runs OFC and OWK-Swift as two independent
cells; at ``workers=2`` each runs in its own process.  Figure 9's
improvements and totals, Table 2, Figure 10's cache series and the hit
ratio must not depend on the worker count.
"""

from __future__ import annotations

from repro.bench.macro import run_macro_comparison
from repro.workloads.faasload import TenantProfile


def test_serial_and_parallel_macro_runs_agree():
    ofc, swift, improvements = run_macro_comparison(
        TenantProfile.NORMAL, duration_s=300.0, workers=1
    )
    p_ofc, p_swift, p_improvements = run_macro_comparison(
        TenantProfile.NORMAL, duration_s=300.0, workers=2
    )
    assert improvements and p_improvements == improvements
    for serial, parallel in ((ofc, p_ofc), (swift, p_swift)):
        assert parallel.total_exec_s == serial.total_exec_s
        assert parallel.completed == serial.completed
        assert parallel.failed_invocations == serial.failed_invocations
    assert p_ofc.table2 == ofc.table2
    assert p_ofc.cache_series == ofc.cache_series
    assert p_ofc.hit_ratio == ofc.hit_ratio
