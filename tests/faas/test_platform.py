"""Integration tests for the FaaS platform core."""

import pytest

from repro.faas import (
    FaaSPlatform,
    InvocationRequest,
    NoSuchFunction,
    PlatformConfig,
)
from repro.faas.platform import SizingDecision
from repro.sim import Kernel
from repro.storage import ObjectStore, SWIFT_PROFILE
from tests.faas.conftest import deploy


def seed_input(kernel, store, name="in", size=16 * 1024):
    def scenario():
        yield from store.put("inputs", name, {"kind": "image"}, size=size)

    kernel.run_process(scenario())


def invoke(kernel, platform, **kwargs):
    """Run one invocation without draining future timers (keep-alive)."""
    kwargs.setdefault("function", "fn")
    kwargs.setdefault("tenant", "t0")
    request = InvocationRequest(**kwargs)
    return kernel.run_until(kernel.process(platform.invoke(request)))


def test_basic_invocation_succeeds(env):
    kernel, store, platform = env
    deploy(platform)
    seed_input(kernel, store)
    record = invoke(kernel, platform, input_ref="inputs/in")
    assert record.status == "ok"
    assert record.cold_start
    assert record.duration > 0
    assert record.output_refs == [f"out-{record.request.request_id}"] or (
        record.output_refs[0].startswith("outputs/")
    )
    assert store.contains("outputs", record.output_refs[0].split("/", 1)[1])


def test_unknown_function_raises(env):
    kernel, _store, platform = env
    with pytest.raises(NoSuchFunction):
        invoke(kernel, platform, function="nope")


def test_phases_are_recorded(env):
    kernel, store, platform = env
    deploy(platform, compute_s=0.2)
    seed_input(kernel, store)
    record = invoke(kernel, platform, input_ref="inputs/in")
    # Extract: one Swift GET (~38 ms base); Load: one Swift PUT (~95 ms).
    assert 0.02 < record.phases.extract < 0.2
    assert 0.05 < record.phases.load < 0.3
    assert record.phases.transform == pytest.approx(0.2, rel=0.05)


def test_warm_start_reuses_sandbox(env):
    kernel, store, platform = env
    deploy(platform)
    seed_input(kernel, store)
    first = invoke(kernel, platform, input_ref="inputs/in")
    second = invoke(kernel, platform, input_ref="inputs/in")
    assert first.cold_start
    assert not second.cold_start
    assert second.sandbox_id == first.sandbox_id
    assert second.duration < first.duration


def test_keepalive_reaps_idle_sandbox(env):
    kernel, store, platform = env
    deploy(platform)
    seed_input(kernel, store)
    first = invoke(kernel, platform, input_ref="inputs/in")
    kernel.run(until=kernel.now + 700.0)  # past the 600 s keep-alive
    second = invoke(kernel, platform, input_ref="inputs/in")
    assert second.cold_start
    assert second.sandbox_id != first.sandbox_id
    node = platform.invoker_by_id(first.node)
    assert node.stats.sandboxes_reaped == 1


def test_sandbox_survives_within_keepalive(env):
    kernel, store, platform = env
    deploy(platform)
    seed_input(kernel, store)
    first = invoke(kernel, platform, input_ref="inputs/in")
    kernel.run(until=kernel.now + 400.0)
    second = invoke(kernel, platform, input_ref="inputs/in")
    assert not second.cold_start
    assert second.sandbox_id == first.sandbox_id


def test_peak_memory_tracked(env):
    kernel, store, platform = env
    deploy(platform, footprint_mb=300.0)
    seed_input(kernel, store)
    record = invoke(kernel, platform, input_ref="inputs/in")
    assert record.peak_memory_mb == pytest.approx(300.0, rel=0.01)
    assert record.memory_limit_mb == 512.0
    assert record.wasted_memory_mb == pytest.approx(212.0, rel=0.05)


def test_oom_kill_and_retry_with_booked_memory(env):
    kernel, store, platform = env
    deploy(platform, footprint_mb=400.0, booked=512.0)
    seed_input(kernel, store)

    def tiny_sizing(request, spec, record):
        return SizingDecision(memory_mb=128.0, predicted_mb=128.0)
        yield  # pragma: no cover

    platform.sizing_policy = tiny_sizing
    record = invoke(kernel, platform, input_ref="inputs/in")
    assert record.status == "ok"
    assert record.retries == 1
    assert record.oom_kills == 1
    assert record.error == ""  # the attempt that was killed is not the outcome
    assert record.memory_limit_mb == 512.0
    # The OOM-killed sandbox was destroyed and a new one created.
    node = platform.invoker_by_id(record.node)
    assert node.stats.oom_kills >= 1


def test_invocation_fails_when_booked_too_small(env):
    kernel, store, platform = env
    deploy(platform, footprint_mb=800.0, booked=256.0)
    seed_input(kernel, store)
    record = invoke(kernel, platform, input_ref="inputs/in")
    assert record.status == "failed"
    assert record.oom_kills >= 1


def test_failed_record_says_why(env):
    """Retries running out used to leave ``error == ""``."""
    kernel, store, platform = env
    deploy(platform, footprint_mb=800.0, booked=256.0)
    seed_input(kernel, store)
    record = invoke(kernel, platform, input_ref="inputs/in")
    assert record.status == "failed"
    assert record.error.startswith("OOMKilled: ") and "256 MB limit" in record.error


@pytest.mark.parametrize(
    "node_ids, why",
    [(["w0", "w1"], "ResourceExhausted: w"), ([], "ResourceExhausted: no worker")],
    ids=["every-node-full", "no-node"],
)
def test_unschedulable_record_says_why(node_ids, why):
    kernel = Kernel()
    store = ObjectStore(kernel, profile=SWIFT_PROFILE)
    platform = FaaSPlatform(
        kernel, store, PlatformConfig(node_ids=node_ids, node_memory_mb=256)
    )
    deploy(platform, booked=512.0)
    record = invoke(kernel, platform)
    assert record.status == "failed"
    assert record.error.startswith(why) and record.retries == len(node_ids)


def test_memory_clamped_to_platform_range(env):
    kernel, store, platform = env
    deploy(platform, footprint_mb=10.0, booked=4096.0)
    seed_input(kernel, store)
    record = invoke(kernel, platform, input_ref="inputs/in")
    assert record.memory_limit_mb == 2048.0  # max sandbox size


def test_completion_listener_fires(env):
    kernel, store, platform = env
    deploy(platform)
    seed_input(kernel, store)
    seen = []
    platform.completion_listeners.append(lambda r: seen.append(r.status))
    invoke(kernel, platform, input_ref="inputs/in")
    assert seen == ["ok"]


def test_sizing_policy_drives_sandbox_size(env):
    kernel, store, platform = env
    deploy(platform, footprint_mb=100.0)
    seed_input(kernel, store)

    def sizing(request, spec, record):
        yield kernel.timeout(0.006)
        return SizingDecision(memory_mb=160.0, predicted_mb=160.0, should_cache=True)

    platform.sizing_policy = sizing
    record = invoke(kernel, platform, input_ref="inputs/in")
    assert record.status == "ok"
    assert record.memory_limit_mb == 160.0
    assert record.predicted_memory_mb == 160.0
    assert record.should_cache is True


def test_records_accumulate(env):
    kernel, store, platform = env
    deploy(platform)
    seed_input(kernel, store)
    delivered = []
    platform.completion_listeners.append(delivered.append)
    returned = [invoke(kernel, platform, input_ref="inputs/in") for _ in range(3)]
    assert delivered == returned
    assert len(delivered) == 3


def test_home_worker_affinity(env):
    kernel, store, platform = env
    deploy(platform)
    seed_input(kernel, store)
    nodes = {invoke(kernel, platform, input_ref="inputs/in").node for _ in range(4)}
    assert len(nodes) == 1  # same (tenant, function) -> same home worker


def test_concurrent_invocations_create_parallel_sandboxes(env):
    kernel, store, platform = env
    deploy(platform, compute_s=1.0)
    seed_input(kernel, store)
    procs = [
        platform.submit(
            InvocationRequest(function="fn", tenant="t0", input_ref="inputs/in")
        )
        for _ in range(3)
    ]
    kernel.run()
    records = [p.value for p in procs]
    assert all(r.status == "ok" for r in records)
    assert len({r.sandbox_id for r in records}) == 3
    assert all(r.cold_start for r in records)


def test_monitor_rescue_prevents_oom(env):
    kernel, store, platform = env
    deploy(platform, footprint_mb=400.0, compute_s=0.5)
    seed_input(kernel, store)

    class RescuingMonitor:
        def __init__(self, record, node):
            self.node = node

        def on_pressure(self, ctx, usage, footprint_mb):
            yield from self.node.resize_sandbox(ctx.sandbox, footprint_mb + 64)
            return True

    def tiny_sizing(request, spec, record):
        return SizingDecision(memory_mb=128.0)
        yield  # pragma: no cover

    platform.sizing_policy = tiny_sizing
    platform.monitor_factory = RescuingMonitor
    record = invoke(kernel, platform, input_ref="inputs/in")
    assert record.status == "ok"
    assert record.oom_kills == 0
    assert record.retries == 0
    assert record.memory_limit_mb == pytest.approx(464.0)
