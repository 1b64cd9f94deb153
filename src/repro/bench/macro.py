"""Macro experiments (§7.2.2): Figure 9, Table 2 and Figure 10.

FaaSLoad emulates 8 tenants (the six wand functions plus MapReduce and
THIS), firing for 30 simulated minutes with exponential inter-arrival
times (mean 60 s).  Three tenant profiles are compared — naive,
advanced, normal — each against the OWK-Swift baseline.  The three
artifacts are views of the same runs: Figure 9 compares execution
times, Table 2 is the OFC run's internal counters, Figure 10 its cache
size over time (:func:`per_minute`).

A 24-tenant variant (3 per workload) reproduces the paper's
higher-contention observation: lower hit ratio and smaller (but still
positive) improvements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.envs import build_ofc_env, build_owk_swift_env, pretrain_function
from repro.bench.reporting import improvement_pct
from repro.bench.runner import run_grid
from repro.sim.latency import GB, KB, MB
from repro.workloads.faasload import FaaSLoad, TenantProfile, TenantSpec
from repro.workloads.tenants import TenantAggregate

#: The 8 workloads of Figure 9 (one tenant each in the 8-tenant runs).
MACRO_WORKLOADS = [
    "wand_blur",
    "wand_resize",
    "wand_sepia",
    "wand_rotate",
    "wand_denoise",
    "wand_edge",
    "map_reduce",
    "THIS",
]

_IMAGE_SIZES = [16 * KB, 64 * KB, 256 * KB, 1 * MB, 3 * MB]
_PIPELINE_SIZES = {"map_reduce": [5 * MB, 10 * MB], "THIS": [16 * MB, 25 * MB]}


@dataclass
class MacroResult:
    system: str
    profile: str
    #: workload -> sum of execution times of its landed-ok invocations (s).
    total_exec_s: Dict[str, float] = field(default_factory=dict)
    #: workload -> number of completed invocations.
    completed: Dict[str, int] = field(default_factory=dict)
    failed_invocations: int = 0
    table2: Dict[str, float] = field(default_factory=dict)
    cache_series: List[Tuple[float, int]] = field(default_factory=list)
    hit_ratio: float = 0.0
    #: Full observability snapshot (repro.obs.MetricsRegistry.snapshot()
    #: of the OFC deployment); None for the baseline systems.
    obs_snapshot: Optional[Dict] = None


def _tenant_specs(
    profile: TenantProfile, tenants_per_workload: int = 1
) -> List[TenantSpec]:
    specs = []
    for copy in range(tenants_per_workload):
        for workload in MACRO_WORKLOADS:
            sizes = _PIPELINE_SIZES.get(workload, _IMAGE_SIZES)
            specs.append(
                TenantSpec(
                    tenant_id=f"tenant-{workload}-{copy}",
                    workload=workload,
                    profile=profile,
                    mean_interval_s=60.0,
                    arrival="exponential",
                    input_sizes=list(sizes),
                    n_inputs=len(sizes),
                )
            )
    return specs


def run_macro(
    system: str,
    profile: TenantProfile,
    duration_s: float = 1800.0,
    tenants_per_workload: int = 1,
    node_mb: float = 16384.0,
    seed: int = 0,
) -> MacroResult:
    """One macro run on the default four nodes.  ``system`` is "ofc" or
    "swift".

    ``seed`` varies only the deployment (platform and storage latency
    jitter) and pretraining.  Arrivals, arguments, inputs and function
    ground truth come from the injector's ``truth_seed`` (0), so every
    seed replays the same load.
    """
    specs = _tenant_specs(profile, tenants_per_workload)
    if system == "ofc":
        deployment = build_ofc_env(node_mb=node_mb, seed=seed)
        kernel, store, platform = (
            deployment.kernel,
            deployment.store,
            deployment.platform,
        )
    elif system == "swift":
        deployment = None
        env = build_owk_swift_env(node_mb=node_mb, seed=seed)
        kernel, store, platform = env.kernel, env.store, env.platform
    else:
        raise ValueError(f"unknown system: {system}")

    injector = FaaSLoad(kernel, platform, store)
    injector.prepare(specs)

    if system == "ofc":
        # The paper trains models offline from FaaSLoad telemetry; give
        # every single-stage tenant a mature model up front.
        for runtime in injector.tenants:
            if runtime.model is not None:
                pretrain_function(
                    deployment,
                    runtime.model,
                    runtime.descriptors,
                    tenant=runtime.spec.tenant_id,
                    seed=seed,
                )

    stats = injector.run(duration_s)

    result = MacroResult(
        system=system, profile=profile.value, failed_invocations=stats.failed
    )
    for runtime in injector.tenants:
        workload = runtime.spec.workload
        # Figure 9 sums *execution* times of landed-ok invocations
        # (queueing and sandbox provisioning excluded; a pipeline's is
        # its duration).  A tenant with nothing landed contributes 0.
        agg = stats.per_tenant.get(runtime.tenant_id, TenantAggregate())
        totals, completed = result.total_exec_s, result.completed
        totals[workload] = totals.get(workload, 0.0) + agg.exec_sum_s
        completed[workload] = completed.get(workload, 0) + agg.completed
    if system == "ofc":
        result.table2 = deployment.table2_snapshot()
        result.cache_series = list(deployment.metrics.cache_size_series)
        result.hit_ratio = deployment.rclib_stats.hit_ratio
        result.obs_snapshot = deployment.obs.snapshot()
    return result


def per_minute(series: Sequence[Tuple[float, int]]) -> List[Tuple[float, float]]:
    """Downsample (sim seconds, cache bytes) samples to (minute, cache
    GB) rows for reporting."""
    rows: List[Tuple[float, float]] = []
    next_minute = 0.0
    for t, size in series:
        if t >= next_minute:
            rows.append((round(t / 60.0, 1), size / GB))
            next_minute = t + 60.0
    return rows


def _macro_cell(cell) -> MacroResult:
    """One macro run as a runner cell; module-level for pickling."""
    system, profile, duration_s, tenants_per_workload, node_mb, seed = cell
    return run_macro(
        system,
        profile,
        duration_s=duration_s,
        tenants_per_workload=tenants_per_workload,
        node_mb=node_mb,
        seed=seed,
    )


def run_macro_comparison(
    profile: TenantProfile,
    duration_s: float = 1800.0,
    tenants_per_workload: int = 1,
    seed: int = 0,
    node_mb: Optional[float] = None,
    workers: Optional[int] = None,
) -> Tuple[MacroResult, MacroResult, Dict[str, float]]:
    """OFC vs OWK-Swift for one profile.

    Returns (ofc result, swift result, per-workload improvement %).
    Node memory scales with tenant count by default (the paper's
    testbed had 512 GB workers; memory exhaustion from sheer sandbox
    count is not the phenomenon under study).  The two runs are
    independent simulations and fan out across ``workers`` processes.
    Both replay the same load whatever ``seed`` is: it reaches only
    platform jitter and pretraining (see :func:`run_macro`).
    """
    if node_mb is None:
        node_mb = 16384.0 * max(1, tenants_per_workload)
    cells = [
        (system, profile, duration_s, tenants_per_workload, node_mb, seed)
        for system in ("ofc", "swift")
    ]
    ofc, swift = run_grid(_macro_cell, cells, workers=workers)
    improvements = {
        w: improvement_pct(swift.total_exec_s[w], ofc.total_exec_s.get(w, 0.0))
        for w in MACRO_WORKLOADS
        if swift.total_exec_s.get(w, 0.0) > 0
    }
    return ofc, swift, improvements
