"""``InvocationContext.compute`` against the slice-by-slice oracle, and
the ``delay_until`` helper it lands its wakes with."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faas.errors import OOMKilled
from repro.faas.invoker import COMPUTE_SLICES, InvocationContext
from repro.faas.records import InvocationRecord, InvocationRequest
from repro.faas.sandbox import Sandbox
from repro.sim import delay_until, Kernel
from tests.faas.conftest import logging_resumptions
from tests.faas.reference_compute import reference_compute

# -- compute vs. the oracle -------------------------------------------------------


class ScriptedMonitor:
    """Answers the n-th limit crossing with the n-th scripted action:
    ``(verdict, raise_share, think_s)`` — sleep ``think_s``, move the
    limit ``raise_share`` of the way from the usage to the footprint
    (0 leaves it; 1.5 clears the footprint for good; anything between
    is a rescue that a later crossing follows), return ``verdict``.
    Crossings past the script are refused."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    def on_pressure(self, ctx, usage_mb, footprint_mb):
        limit = ctx.sandbox.memory_limit_mb
        self.calls.append((ctx.kernel.now, usage_mb, footprint_mb, limit))
        if len(self.calls) > len(self.script):
            return False
        verdict, raise_share, think_s = self.script[len(self.calls) - 1]
        if think_s:
            yield think_s
        if raise_share:
            ctx.sandbox.set_limit(
                max(limit, usage_mb + raise_share * (footprint_mb - usage_mb) + 1.0)
            )
        return verdict
        yield  # pragma: no cover


def run_phase(compute, start, duration, footprint_mb, limit_mb, script):
    """One Transform phase starting at ``start``; everything observable."""
    kernel = Kernel()
    kernel.run(until=start)
    record = InvocationRecord(
        request=InvocationRequest(function="f", tenant="t"), submitted_at=start
    )
    sandbox = Sandbox("w0", "t/f", limit_mb, start)
    sandbox.sandbox_id = "sbx"  # ids are process-global; keep messages equal
    monitor = ScriptedMonitor(script) if script is not None else None
    ctx = InvocationContext(kernel, record, sandbox, data=None, monitor=monitor)
    seen = {}

    def phase():
        try:
            yield from compute(ctx, duration, footprint_mb)
            seen["outcome"] = ("ok", kernel.now)
        except OOMKilled as oom:
            seen["outcome"] = ("oom", kernel.now, oom.needed_mb, str(oom))
        yield 1.0  # the next sleep starts from the same float, too
        seen["after"] = kernel.now

    kernel.process(phase())
    kernel.run()
    seen["pressure_calls"] = monitor.calls if monitor else None
    seen["peak_memory_mb"] = record.peak_memory_mb
    seen["transform"] = record.phases.transform
    seen["limit_mb"] = sandbox.memory_limit_mb
    return seen


starts = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e-3),
    st.floats(min_value=0.0, max_value=50.0),
    st.floats(min_value=0.0, max_value=1e7),
)
durations = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e-9),
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=0.0, max_value=1e5),
)
footprints = st.floats(min_value=0.0, max_value=8192.0)
limit_shares = st.floats(min_value=0.01, max_value=1.2)
actions = st.tuples(
    st.booleans(),
    st.sampled_from([0.0, 0.0, 0.1, 0.3, 0.6, 1.5]),
    st.sampled_from([0.0, 0.0, 1e-6, 0.25, 7.0]),
)
scripts = st.one_of(st.none(), st.lists(actions, max_size=COMPUTE_SLICES + 2))


@settings(max_examples=400, deadline=None)
@given(starts, durations, footprints, limit_shares, scripts)
# A monitor that never rescues, one that rescues at the third crossing
# after two short raises, a start before one duration has elapsed.
@example(0.0, 2.0, 400.0, 0.25, [])
@example(0.3, 4.0, 1000.0, 0.1, [(True, 0.1, 0.0), (True, 0.1, 0.25), (True, 1.5, 0.0)])
@example(1e-3, 30.0, 64.0, 1.2, None)
# Early starts whose end instant the plain ``t - now`` overshoots, and
# ones no single sleep can land on (see delay_until).
@example(0.992, 9.73, 64.0, 1.2, None)
@example(1.471, 52.89, 64.0, 1.2, None)
@example(1.763, 26.75, 64.0, 1.2, None)
@example(0.351, 13.31, 64.0, 1.2, None)
def test_compute_matches_the_slice_loop(start, duration, footprint_mb, share, script):
    limit_mb = max(1.0, footprint_mb * share)
    want = run_phase(reference_compute, start, duration, footprint_mb, limit_mb, script)
    got = run_phase(
        InvocationContext.compute, start, duration, footprint_mb, limit_mb, script
    )
    assert got == want


def test_compute_sleeps_once_per_stretch():
    """No crossing: one resumption.  Each crossing adds one."""
    rescue_twice = [(True, 0.3, 0.0), (True, 1.5, 0.0)]
    counts = []
    for compute, limit_mb, script in (
        (InvocationContext.compute, 512.0, None),
        (InvocationContext.compute, 10.0, rescue_twice),
        (reference_compute, 512.0, None),
    ):
        log = []
        run_phase(logging_resumptions(compute, log), 5.0, 2.0, 100.0, limit_mb, script)
        counts.append(len(log))
    assert counts == [1, 3, COMPUTE_SLICES]


def test_compute_rejects_negative_arguments():
    with pytest.raises(ValueError):
        run_phase(InvocationContext.compute, 0.0, -1.0, 1.0, 1.0, None)
    with pytest.raises(ValueError):
        run_phase(InvocationContext.compute, 0.0, 1.0, -1.0, 1.0, None)


# -- delay_until -------------------------------------------------------------------

finite = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


def exact_delays(now, t, reach=4):
    """Every float within ``reach`` ulps of ``t - now`` that lands on ``t``."""
    up = down = t - now
    near = [up]
    for _ in range(reach):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
        near += [up, down]
    return [d for d in near if d >= 0 and now + d == t]


@settings(max_examples=2000, deadline=None)
@given(finite, finite)
# No float d has now + d == t: every sum near t is a tie that rounds to
# t's even neighbours.
@example(1.5 * 2.0**-52, 1.5 + 2.0**-52)
@example(1.0 + 2.0**-52, 3.5 + 2.0**-51)
@example(0.0, 0.0)
@example(0.0, 5e-324)
def test_delay_until_lands_on_t(a, b):
    now, t = min(a, b), max(a, b)
    d = delay_until(now, t)
    assert d >= 0
    landed = now + d
    if now >= t / 2 or exact_delays(now, t):
        assert landed == t
    else:
        # Unreachable in one sleep: stop short, never overshoot, and
        # from there the second sleep is exact.
        assert t / 2 <= landed < t
        assert landed + delay_until(landed, t) == t


@settings(max_examples=500, deadline=None)
@given(starts, st.floats(min_value=1e-6, max_value=1e5), st.integers(1, COMPUTE_SLICES))
def test_delay_until_reaches_folded_slice_instants(start, duration, n):
    """The instants compute aims at: ``duration / slices`` added n times."""
    step = duration / COMPUTE_SLICES
    t = start
    for _ in range(n):
        t += step
    now, hops = start, 0
    while now != t:
        now += delay_until(now, t)
        hops += 1
        assert hops <= 2
