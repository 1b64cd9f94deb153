"""Tests for the pluggable keep-alive policies."""

import pytest

from repro.faas.keepalive import FixedKeepAlive, HistogramKeepAlive
from repro.faas.sandbox import Sandbox, SandboxState
from tests.faas.conftest import deploy
from tests.faas.test_platform import invoke, seed_input


def make_sandbox(function_key="t/f"):
    sandbox = Sandbox("w0", function_key, 256.0, created_at=0.0)
    sandbox.state = SandboxState.IDLE
    return sandbox


def test_fixed_policy_constant():
    policy = FixedKeepAlive(600.0)
    assert policy.timeout_for(make_sandbox()) == 600.0
    with pytest.raises(ValueError):
        FixedKeepAlive(0.0)


def test_histogram_policy_defaults_without_history():
    policy = HistogramKeepAlive(default_s=600.0)
    assert policy.timeout_for(make_sandbox()) == 600.0


def test_histogram_policy_tracks_interarrival_times():
    policy = HistogramKeepAlive(min_history=3, default_s=600.0)
    now = 0.0
    for _ in range(10):
        policy.record_invocation("t/f", now)
        now += 30.0
    timeout = policy.timeout_for(make_sandbox("t/f"))
    # All gaps are 30 s: keep-alive = 1.2 x 30 = 36 s, not 600 s.
    assert timeout == pytest.approx(36.0)


def test_histogram_policy_bounded():
    policy = HistogramKeepAlive(min_history=2, floor_s=10.0, cap_s=100.0)
    now = 0.0
    for _ in range(5):
        policy.record_invocation("t/fast", now)
        now += 0.5
    assert policy.timeout_for(make_sandbox("t/fast")) == 10.0  # floor
    now = 0.0
    for _ in range(5):
        policy.record_invocation("t/slow", now)
        now += 5000.0
    assert policy.timeout_for(make_sandbox("t/slow")) == 100.0  # cap


def test_histogram_policy_is_per_function():
    policy = HistogramKeepAlive(min_history=2)
    now = 0.0
    for _ in range(5):
        policy.record_invocation("t/a", now)
        now += 20.0
    assert policy.timeout_for(make_sandbox("t/a")) < 100.0
    assert policy.timeout_for(make_sandbox("t/b")) == policy.default_s


def test_invalid_percentile_rejected():
    with pytest.raises(ValueError):
        HistogramKeepAlive(percentile=0.0)


def test_histogram_policy_reaps_rare_functions_quickly(env):
    """End to end: frequently-invoked function keeps its sandbox warm
    while the adaptive timeout reclaims it fast after the rhythm stops."""
    kernel, store, platform = env
    deploy(platform)
    seed_input(kernel, store)
    platform.set_keepalive_policy(
        HistogramKeepAlive(min_history=3, floor_s=5.0, cap_s=300.0)
    )
    # Invoke every 20 s: a rhythm the policy learns.
    records = []
    for _ in range(8):
        records.append(invoke(kernel, platform, input_ref="inputs/in"))
        kernel.run(until=kernel.now + 20.0)
    # Warm within the rhythm.
    assert sum(1 for r in records[3:] if not r.cold_start) >= 4
    # After the rhythm stops, the sandbox dies in ~24 s, not 600 s.
    kernel.run(until=kernel.now + 60.0)
    node = platform.invoker_by_id(records[-1].node)
    assert not node.idle_sandboxes("t0/fn")


def test_fixed_policy_matches_default_behaviour(env):
    kernel, store, platform = env
    deploy(platform)
    seed_input(kernel, store)
    platform.set_keepalive_policy(FixedKeepAlive(50.0))
    record = invoke(kernel, platform, input_ref="inputs/in")
    kernel.run(until=kernel.now + 40.0)
    node = platform.invoker_by_id(record.node)
    assert node.idle_sandboxes("t0/fn")  # still alive at 40 s
    kernel.run(until=kernel.now + 30.0)
    assert not node.idle_sandboxes("t0/fn")  # reaped after 50 s
