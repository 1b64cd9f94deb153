"""Tests for the sandbox state machine."""

import pytest

from repro.faas.invoker import Invoker
from repro.faas.records import InvocationRecord, InvocationRequest
from repro.faas.registry import FunctionSpec
from repro.faas.sandbox import Sandbox, SandboxState
from repro.sim import Kernel


def make(limit=256.0):
    sandbox = Sandbox("w0", "t/f", limit, created_at=0.0)
    sandbox.state = SandboxState.IDLE
    return sandbox


def test_lifecycle_happy_path():
    sandbox = make()
    sandbox.reserve()
    assert sandbox.state == SandboxState.BUSY
    sandbox.begin_invocation(now=1.0)
    assert sandbox.invocations == 1
    sandbox.end_invocation(now=2.0)
    assert sandbox.idle
    assert sandbox.last_used_at == 2.0


def test_double_reserve_rejected():
    sandbox = make()
    sandbox.reserve()
    with pytest.raises(RuntimeError):
        sandbox.reserve()


def test_begin_without_reserve_rejected():
    sandbox = make()
    with pytest.raises(RuntimeError):
        sandbox.begin_invocation(now=0.0)


def test_end_without_begin_state_rejected():
    sandbox = make()
    with pytest.raises(RuntimeError):
        sandbox.end_invocation(now=0.0)


def test_every_invocation_end_moves_the_keepalive_deadline():
    """The deadline is ``now + timeout`` after every invocation end,
    whether the next deadline lies later or earlier."""
    kernel = Kernel()
    invoker = Invoker(kernel, "w0", 2048.0, keepalive_s=100.0)
    timeouts = iter([100.0, 250.0, 30.0])
    invoker.keepalive_policy.timeout_for = lambda _sandbox: next(timeouts)

    def body(ctx):
        yield ctx.args["s"]

    fn = FunctionSpec(name="f", tenant="t", body=body)
    deadlines = []
    for gap in (0.0, 5.0, 7.5):
        kernel.run(until=kernel.now + gap)
        request = InvocationRequest("f", "t", args={"s": 2.0})
        record = InvocationRecord(request=request, submitted_at=kernel.now)
        kernel.run_until(kernel.process(invoker.execute(fn, record, 256.0, None)))
        (sandbox,) = invoker.sandboxes
        deadlines.append((sandbox.reap_at, record.finished_at))
    assert [reap_at for reap_at, _ in deadlines] == [
        end + timeout for (_, end), timeout in zip(deadlines, (100.0, 250.0, 30.0))
    ]


def test_kill_makes_dead_and_not_idle():
    sandbox = make()
    sandbox.kill()
    assert not sandbox.alive
    assert not sandbox.idle


def test_set_limit_validates():
    sandbox = make()
    sandbox.set_limit(512.0)
    assert sandbox.memory_limit_mb == 512.0
    with pytest.raises(ValueError):
        sandbox.set_limit(0.0)


def test_reserve_dead_sandbox_rejected():
    sandbox = make()
    sandbox.kill()
    with pytest.raises(RuntimeError):
        sandbox.reserve()


def test_sandbox_ids_unique():
    assert make().sandbox_id != make().sandbox_id
