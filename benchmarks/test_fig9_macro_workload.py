"""Figure 9 + §7.2.2: macro workloads, OFC vs OWK-Swift.

Three tenant profiles at 8 tenants, plus the 24-tenant contention run,
at the durations :mod:`repro.bench.artifacts` defines (shorter than the
paper's 30 minutes; ``run_macro_comparison(..., duration_s=1800)`` is
the full experiment).
"""

import numpy as np
import pytest

from benchmarks.conftest import draw


@pytest.mark.parametrize("profile", ["normal", "naive", "advanced"])
def test_fig9_macro(benchmark, profile):
    ofc, _swift, improvements = draw(benchmark, f"fig9_macro_{profile}")
    # OFC outperforms OWK-Swift for every workload (paper: 23.9-79.8 %).
    for workload, pct in improvements.items():
        assert pct > 0.0, workload
    values = list(improvements.values())
    assert max(values) > 40.0
    assert float(np.mean(values)) > 25.0
    # No invocation fails from memory pressure (Table 2 line 9).
    assert ofc.failed_invocations == 0
    # The cache serves most reads (paper: 93-99 %).
    assert ofc.hit_ratio > 0.6


def test_macro_24_tenants(benchmark):
    """§7.2.2: 24 tenants (3 per workload) — contention lowers the hit
    ratio and the improvement, but nothing fails."""
    ofc, _swift, improvements = draw(benchmark, "fig9_macro_24tenants")
    assert ofc.failed_invocations == 0
    # Improvements shrink but OFC still wins overall.
    assert float(np.mean(list(improvements.values()))) > 4.0
