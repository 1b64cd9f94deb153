"""Tests for the Monitor (§5.3.1) and OFC routing (§6.5)."""

from repro.core.monitor import MONITOR_HEADROOM_MB
from repro.faas.platform import SizingDecision
from repro.faas.records import InvocationRequest
from repro.faas.registry import FunctionSpec
from tests.core.conftest import deploy, invoke, seed_images


def make_long_function(platform, footprint_mb=600.0, duration=6.0, booked=1024.0):
    """A function whose Transform runs long enough for the Monitor."""

    def body(ctx):
        yield from ctx.compute(duration, footprint_mb)

    platform.register_function(
        FunctionSpec(
            name="long_fn", tenant="t0", body=body, booked_memory_mb=booked
        )
    )


def undersized_policy(memory_mb):
    def policy(request, spec, record):
        return SizingDecision(memory_mb=memory_mb, predicted_mb=memory_mb)
        yield  # pragma: no cover

    return policy


def test_monitor_rescues_long_underpredicted_invocation(ofc):
    # The usage ramp crosses the 320 MB limit at ~3.8 s — past the 3 s
    # monitoring threshold, so the Monitor raises the cap in place.
    make_long_function(ofc.platform, footprint_mb=500.0, duration=6.0)
    ofc.platform.sizing_policy = undersized_policy(320.0)
    record = invoke(ofc, fn_name="long_fn", args={})
    assert record.status == "ok"
    assert record.oom_kills == 0
    assert record.retries == 0
    assert record.memory_limit_mb > 500.0  # cap was raised mid-flight


def test_short_invocations_are_not_rescued(ofc):
    """Under 3 s of runtime the Monitor stays out: OOM kill + retry."""
    make_long_function(ofc.platform, footprint_mb=600.0, duration=0.5)
    ofc.platform.sizing_policy = undersized_policy(256.0)
    record = invoke(ofc, fn_name="long_fn", args={})
    assert record.status == "ok"  # retried at the booked size
    assert record.oom_kills == 1
    assert record.retries == 1


def test_monitor_cap_bounded_by_booked_plus_headroom(ofc):
    make_long_function(
        ofc.platform, footprint_mb=900.0, duration=6.0, booked=1024.0
    )
    ofc.platform.sizing_policy = undersized_policy(128.0)
    record = invoke(ofc, fn_name="long_fn", args={})
    assert record.status == "ok"
    assert record.memory_limit_mb <= 1024.0 + MONITOR_HEADROOM_MB


# -- routing -------------------------------------------------------------------


def test_routing_prefers_cached_input_node(ofc):
    deploy(ofc)
    refs = seed_images(ofc, n=1)
    first = invoke(ofc, ref=refs[0])
    location = ofc.cluster.location_of(refs[0])
    assert location == first.node  # populated on the executing node
    # Kill the warm sandbox so a new one must be created.
    invoker = ofc.platform.invoker_by_id(first.node)
    for sandbox in list(invoker.sandboxes):
        invoker.destroy_sandbox(sandbox)
    second = invoke(ofc, ref=refs[0])
    assert second.node == location  # locality-aware placement
    assert ofc.rclib_stats.hits_local >= 1


def test_routing_prefers_warm_sandbox_over_locality(ofc):
    deploy(ofc)
    refs = seed_images(ofc, n=1)
    first = invoke(ofc, ref=refs[0])
    # Migrate the cached input away from the sandbox's node.
    new_master = ofc.kernel.run_until(
        ofc.kernel.process(ofc.cluster.migrate_master(refs[0]))
    )
    assert new_master != first.node
    second = invoke(ofc, ref=refs[0])
    # Warm sandbox wins over data locality (avoid cold start).
    assert second.node == first.node
    assert not second.cold_start
    assert ofc.rclib_stats.hits_remote >= 1


def test_routing_ranks_sandboxes_by_memory_distance(ofc):
    deploy(ofc)
    refs = seed_images(ofc, n=1)

    # Create two warm sandboxes with different limits via sizing.
    ofc.platform.sizing_policy = None
    sizes = iter([512.0, 1024.0])

    def two_sizes(request, spec, record):
        return SizingDecision(memory_mb=next(sizes))
        yield  # pragma: no cover

    ofc.platform.sizing_policy = two_sizes

    # Run two concurrent invocations to force two sandboxes.
    p1 = ofc.platform.submit(
        InvocationRequest(
            function="wand_sepia",
            tenant="t0",
            args={"threshold": 0.8},
            input_ref=refs[0],
        )
    )
    p2 = ofc.platform.submit(
        InvocationRequest(
            function="wand_sepia",
            tenant="t0",
            args={"threshold": 0.8},
            input_ref=refs[0],
        )
    )
    ofc.kernel.run_until(ofc.kernel.all_of([p1, p2]))
    by_limit = {
        sandbox.memory_limit_mb: sandbox.sandbox_id
        for invoker in ofc.platform.invokers
        for sandbox in invoker.sandboxes
    }
    assert set(by_limit) == {512.0, 1024.0}

    def close_to_1024(request, spec, record):
        return SizingDecision(memory_mb=1024.0)
        yield  # pragma: no cover

    ofc.platform.sizing_policy = close_to_1024
    record = invoke(ofc, ref=refs[0])
    # The 1024 MB sandbox is the closest to the predicted size.
    assert record.sandbox_id == by_limit[1024.0]


def test_routing_excludes_nodes(ofc):
    scheduler = ofc.platform.scheduler
    request = InvocationRequest(function="wand_sepia", tenant="t0")
    all_nodes = {inv.node_id for inv in ofc.platform.invokers}
    chosen = scheduler.choose_node(
        request, 256.0, ofc.platform.invokers, exclude=all_nodes
    )
    assert chosen is None
