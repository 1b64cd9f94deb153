"""``FaaSLoad.run`` fires and drains exactly like one process per tenant.

The reference (:func:`tests.workloads.reference_faasload.run_reference`)
runs one kernel process per tenant, a ``pending`` list and an ``all_of``
barrier.  ``FaaSLoad.run`` is the one load engine's driver,
``repro.workloads.tenants.TenantLoadEngine.run``.  On a mixed
population — tied periodic tenants (one pair whose ties the per-tenant
processes break against list order), zero-gap and 0.3 s-gap bursty
tenants, an exponential tenant and a ``map_reduce`` pipeline — both
runs must give the same completions in the same order, the same
pipeline completions in the same order, the same fired counts and the
same return instant, on OFC and on OWK-Swift.  Neither keeps records:
both are observed through the platform's listeners.
"""

from __future__ import annotations

import pytest

from repro.bench.envs import build_ofc_env, build_owk_swift_env
from repro.sim.latency import KB, MB
from repro.workloads.faasload import FaaSLoad, TenantSpec
from tests.workloads.reference_faasload import run_reference

DURATION_S = 90.0


def _population():
    def spec(tenant, workload, arrival, mean, **extra):
        return TenantSpec(
            tenant_id=tenant,
            workload=workload,
            arrival=arrival,
            mean_interval_s=mean,
            input_sizes=extra.pop("input_sizes", [16 * KB, 64 * KB]),
            n_inputs=2,
            **extra,
        )

    return [
        # The 5 s tenant comes first but sleeps into every 10 s tie
        # after the 10 s tenants do, so they fire before it there.
        spec("per-5", "wand_sepia", "periodic", 5.0),
        spec("per-10a", "wand_blur", "periodic", 10.0),
        spec("per-10b", "wand_resize", "periodic", 10.0),
        spec("burst-0", "wand_edge", "bursty", 12.0, burst_size=3.0, burst_gap_s=0.0),
        spec("burst-03", "wand_rotate", "bursty", 9.0, burst_gap_s=0.3),
        spec("expo", "wand_denoise", "exponential", 6.0),
        spec("mr", "map_reduce", "periodic", 20.0, input_sizes=[4 * MB]),
    ]


def _env(system):
    if system == "ofc":
        ofc = build_ofc_env(seed=3)
        return ofc.kernel, ofc.platform, ofc.store
    env = build_owk_swift_env(seed=3)
    return env.kernel, env.platform, env.store


def _pipeline(prec):
    stages = tuple(
        (
            stage.function,
            stage.started_at,
            stage.finished_at,
            tuple(r.request.request_id for r in stage.records),
        )
        for stage in prec.stage_records
    )
    return prec.pipeline_id, prec.status, prec.submitted_at, prec.finished_at, stages


def _observe(system, run):
    kernel, platform, store = _env(system)
    load = FaaSLoad(kernel, platform, store)
    load.prepare(_population())
    completions = []
    platform.completion_listeners.append(
        lambda r: completions.append(
            (
                r.request.request_id,
                r.request.tenant,
                r.request.function,
                r.status,
                r.submitted_at,
                r.started_at,
                r.finished_at,
                r.cold_start,
                r.node,
            )
        )
    )
    pipelines = []
    platform.pipeline_listeners.append(lambda p: pipelines.append(_pipeline(p)))
    outcome = []
    for _ in range(2):  # a second run continues from the first's end
        run(load)
        outcome.append(
            (
                kernel.now,
                {
                    runtime.tenant_id: runtime.invocations_fired
                    for runtime in load.tenants
                },
            )
        )
    return completions, pipelines, outcome


@pytest.mark.parametrize("system", ["ofc", "swift"])
def test_driver_fires_and_drains_like_one_process_per_tenant(system):
    completions, pipelines, outcome = _observe(
        system, lambda load: load.run(DURATION_S)
    )
    ref_completions, ref_pipelines, ref_outcome = _observe(
        system, lambda load: run_reference(load, DURATION_S)
    )
    assert len(completions) > 60
    assert completions == ref_completions
    assert pipelines == ref_pipelines
    assert outcome == ref_outcome
    # The population exercises what it is there for.
    fired = outcome[-1][1]
    assert fired["mr"] == 8 and len(pipelines) == 8
    assert fired["per-5"] == 36 and fired["per-10a"] == 18
    burst = [r for r in completions if r[1] == "burst-0"]
    assert len({r[4] for r in burst}) < len(burst)  # zero-gap repeats
