"""Unit tests for Invoker memory accounting and sandbox management."""

import pytest

from repro.bench.envs import build_ofc_env
from repro.faas.errors import FaaSError, OOMKilled, ResourceExhausted
from repro.faas.invoker import Invoker
from repro.faas.records import InvocationRecord, InvocationRequest
from repro.faas.registry import FunctionSpec
from repro.faas.sandbox import SandboxState
from repro.sim import Kernel
from repro.workloads.tenants import TenantLoadEngine, TenantWorkloadConfig


def make_invoker(total_mb=2048.0, keepalive=600.0):
    return Invoker(Kernel(), "w0", total_mb, keepalive_s=keepalive)


def spec(name="fn", tenant="t"):
    def body(ctx):
        return
        yield  # pragma: no cover

    return FunctionSpec(name=name, tenant=tenant, body=body)


def run(invoker, gen):
    """Drive one lifecycle step to completion, then audit the node.

    ``committed_mb`` is read first so the memo is populated: a step that
    changes the committed set without invalidating it fails the audit.
    """
    _populate_memo = invoker.committed_mb  # noqa: F841
    try:
        return invoker.kernel.run_until(invoker.kernel.process(gen))
    finally:
        invoker.audit()


def test_memory_accounting_starts_empty():
    invoker = make_invoker()
    assert invoker.committed_mb == 0.0
    assert invoker.available_mb == 2048.0


def test_create_sandbox_commits_memory():
    invoker = make_invoker()
    sandbox = run(invoker, invoker.create_sandbox(spec(), 512.0))
    assert invoker.committed_mb == 512.0
    assert invoker.available_mb == 1536.0
    assert sandbox.state == SandboxState.IDLE
    assert invoker.stats.cold_starts == 1


def test_create_sandbox_without_room_raises():
    invoker = make_invoker(total_mb=256.0)
    with pytest.raises(ResourceExhausted):
        run(invoker, invoker.create_sandbox(spec(), 512.0))
    # The failed reservation was rolled back.
    assert invoker.committed_mb == 0.0
    assert invoker.stats.capacity_rejections == 1


def test_cache_and_slack_reduce_availability():
    invoker = make_invoker()
    invoker.cache_reserved_mb = 1024.0
    invoker.slack_mb = 100.0
    assert invoker.available_mb == 924.0


def test_ensure_capacity_hook_invoked_on_pressure():
    invoker = make_invoker(total_mb=1024.0)
    invoker.cache_reserved_mb = 900.0
    calls = []

    def hook(inv, needed_mb):
        calls.append(needed_mb)
        inv.cache_reserved_mb -= needed_mb
        return True
        yield  # pragma: no cover

    invoker.ensure_capacity = hook
    run(invoker, invoker.create_sandbox(spec(), 512.0))
    assert len(calls) == 1
    assert calls[0] == pytest.approx(388.0)
    assert invoker.available_mb >= 0.0


def test_resize_sandbox_reverts_on_failure():
    invoker = make_invoker(total_mb=512.0)
    sandbox = run(invoker, invoker.create_sandbox(spec(), 256.0))
    with pytest.raises(ResourceExhausted):
        run(invoker, invoker.resize_sandbox(sandbox, 1024.0))
    assert sandbox.memory_limit_mb == 256.0


def test_resize_sandbox_shrink_never_blocks():
    invoker = make_invoker()
    sandbox = run(invoker, invoker.create_sandbox(spec(), 512.0))
    run(invoker, invoker.resize_sandbox(sandbox, 128.0))
    assert sandbox.memory_limit_mb == 128.0
    assert invoker.committed_mb == 128.0


def test_listeners_receive_lifecycle_events():
    invoker = make_invoker()
    events = []
    invoker.listeners.append(lambda event, sb: events.append(event))
    sandbox = run(invoker, invoker.create_sandbox(spec(), 256.0))
    run(invoker, invoker.resize_sandbox(sandbox, 300.0))
    invoker.destroy_sandbox(sandbox)
    assert events == ["created", "resized", "destroyed"]


def test_find_sandbox_prefers_closest_memory():
    invoker = make_invoker(total_mb=8192.0)
    small = run(invoker, invoker.create_sandbox(spec(), 128.0))
    large = run(invoker, invoker.create_sandbox(spec(), 1024.0))
    assert invoker.find_sandbox("t/fn", preferred_mb=1000.0) is large
    assert invoker.find_sandbox("t/fn", preferred_mb=100.0) is small


def test_find_sandbox_without_preference_takes_most_recent():
    invoker = make_invoker(total_mb=8192.0)
    first = run(invoker, invoker.create_sandbox(spec(), 256.0))
    kernel = invoker.kernel
    kernel.run(until=kernel.now + 10.0)
    second = run(invoker, invoker.create_sandbox(spec(), 256.0))
    assert invoker.find_sandbox("t/fn") is second
    assert first.idle  # untouched


def test_find_sandbox_ignores_other_functions():
    invoker = make_invoker()
    run(invoker, invoker.create_sandbox(spec(name="a"), 256.0))
    assert invoker.find_sandbox("t/b") is None


def test_reap_timer_respects_reuse():
    """A sandbox re-used before the keep-alive deadline survives."""
    kernel = Kernel()
    invoker = Invoker(kernel, "w0", 2048.0, keepalive_s=100.0)
    sandbox = run(invoker, invoker.create_sandbox(spec(), 256.0))
    sandbox.reserve()
    sandbox.begin_invocation(kernel.now)
    sandbox.end_invocation(kernel.now)
    invoker._schedule_reap(sandbox)
    # Re-use at t+50: the deadline moves to t+150.
    kernel.run(until=kernel.now + 50.0)
    sandbox.reserve()
    sandbox.begin_invocation(kernel.now)
    sandbox.end_invocation(kernel.now)
    invoker._schedule_reap(sandbox)
    kernel.run(until=kernel.now + 60.0)  # the timer fires here and re-arms
    assert sandbox.alive
    kernel.run(until=kernel.now + 200.0)  # new timer reaps eventually
    assert not sandbox.alive
    assert invoker.stats.sandboxes_reaped == 1


def test_destroy_is_idempotent():
    invoker = make_invoker()
    sandbox = run(invoker, invoker.create_sandbox(spec(), 256.0))
    invoker.destroy_sandbox(sandbox)
    invoker.destroy_sandbox(sandbox)
    assert invoker.stats.sandboxes_destroyed == 1


# -- audit -------------------------------------------------------------------


def test_audit_after_every_lifecycle_step():
    """Cold start, warm start with a resize, monitor-less OOM, reap."""
    kernel = Kernel()
    invoker = Invoker(kernel, "w0", 2048.0, keepalive_s=30.0)

    def hungry(ctx):
        yield from ctx.compute(1.0, float(ctx.args["mb"]))

    fn = FunctionSpec(name="fn", tenant="t", body=hungry)
    other = spec(name="other")

    def execute(function, memory_mb, mb=1.0):
        request = InvocationRequest(function.name, "t", args={"mb": mb})
        record = InvocationRecord(request=request, submitted_at=kernel.now)
        return run(invoker, invoker.execute(function, record, memory_mb, None))

    assert execute(fn, 256.0).cold_start
    assert not execute(fn, 512.0).cold_start  # warm, resized 256 -> 512
    execute(other, 128.0)
    assert invoker.committed_mb == 640.0
    with pytest.raises(OOMKilled):
        execute(fn, 512.0, mb=4096.0)  # destroys the sandbox
    assert invoker.committed_mb == 128.0
    execute(fn, 256.0)
    kernel.run(until=kernel.now + 60.0)  # both idle sandboxes reaped
    invoker.audit()
    assert invoker.stats.sandboxes_reaped == 2
    assert invoker.sandboxes == [] and invoker.committed_mb == 0.0


def test_audit_names_what_drifted():
    invoker = make_invoker()
    sandbox = run(invoker, invoker.create_sandbox(spec(), 256.0))
    assert invoker.committed_mb == 256.0
    sandbox.set_limit(300.0)  # behind the invoker's back: memo is stale
    with pytest.raises(FaaSError, match="committed_mb: 256.0, recomputed 300.0"):
        invoker.audit()
    invoker._notify("resized", sandbox)
    invoker.audit()
    invoker._by_function["t/fn"].remove(sandbox)
    with pytest.raises(FaaSError, match=r"index\[t/fn\]"):
        invoker.audit()


def test_audit_holds_through_a_memory_tight_cell():
    """Every invoker of a seeded cell with sandbox churn, hand-back and
    capacity rejections, audited every 100 completions."""
    ofc = build_ofc_env(nodes=3, node_mb=2048.0, seed=5, keepalive_s=4.0)
    completions = []

    def audit_every_100(record):
        completions.append(record.status)
        if len(completions) % 100 == 0:
            for invoker in ofc.platform.invokers:
                invoker.audit()

    ofc.platform.completion_listeners.append(audit_every_100)
    workload = TenantWorkloadConfig(n_tenants=40, mean_interval_s=2.0, seed=5)
    TenantLoadEngine(ofc.kernel, ofc.platform, ofc.store, workload).run(40.0)
    for invoker in ofc.platform.invokers:
        invoker.audit()
    assert len(completions) >= 300
    assert sum(inv.stats.sandboxes_destroyed for inv in ofc.platform.invokers) > 0
    assert sum(inv.stats.resizes for inv in ofc.platform.invokers) > 0
