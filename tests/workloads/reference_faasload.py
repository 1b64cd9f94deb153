"""The per-tenant-process FaaSLoad loop, kept as a test oracle.

``FaaSLoad.run`` is the load engine's driver,
:meth:`repro.workloads.tenants.TenantLoadEngine.run`: one process over
the merged arrival stream and an in-flight count.  :func:`run_reference`
is the loop it replaced: one kernel process per tenant that draws an
interval, sleeps, fires, keeps the fired process in a ``pending`` list,
and at the deadline waits on an ``all_of`` barrier over that list.
``test_load_driver_oracle.py`` holds ``FaaSLoad.run`` to it through
what the platform's listeners see.
"""

from __future__ import annotations

from repro.faas.records import InvocationRequest
from repro.workloads.faasload import FaaSLoad, TenantRuntime


def next_interval(runtime: TenantRuntime) -> float:
    spec = runtime.spec
    if spec.arrival == "periodic":
        return spec.mean_interval_s
    if spec.arrival == "bursty":
        if runtime.rng.random() < 1.0 / max(spec.burst_size, 1.0):
            gap = spec.mean_interval_s * spec.burst_size - (
                spec.burst_size - 1
            ) * spec.burst_gap_s
            return float(runtime.rng.exponential(max(gap, spec.burst_gap_s)))
        return spec.burst_gap_s
    return float(runtime.rng.exponential(spec.mean_interval_s))


def tenant_loop(load: FaaSLoad, runtime: TenantRuntime, deadline: float):
    kernel, platform, spec = load.kernel, load.platform, runtime.spec
    pending = []
    while True:
        wait = next_interval(runtime)
        if kernel.now + wait > deadline:
            break
        yield wait
        runtime.invocations_fired += 1
        refs = runtime.input_refs[int(runtime.rng.integers(0, len(runtime.input_refs)))]
        if runtime.app is not None:
            process = kernel.process(
                platform.invoke_pipeline(
                    runtime.app.pipeline, tenant=spec.tenant_id, input_refs=list(refs)
                ),
                name=f"{spec.tenant_id}-pipeline",
            )
        else:
            request = InvocationRequest(
                function=spec.workload,
                tenant=spec.tenant_id,
                args=runtime.model.sample_args(runtime.rng),
                input_ref=refs,
            )
            process = platform.submit(request)
        pending.append(process)
    # Wait for in-flight work before finishing.
    if pending:
        yield kernel.all_of(pending)


def run_reference(load: FaaSLoad, duration_s: float) -> None:
    """``FaaSLoad.run`` as one process per tenant and an ``all_of`` barrier."""
    kernel = load.kernel
    deadline = kernel.now + duration_s
    loops = [
        kernel.process(
            tenant_loop(load, runtime, deadline),
            name=f"faasload-{runtime.spec.tenant_id}",
        )
        for runtime in load.tenants
    ]
    kernel.run_until(kernel.all_of(loops))
