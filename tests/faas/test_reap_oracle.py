"""The keep-alive deadline against the one-timer-per-invocation reaper.

``Invoker`` keeps one deadline per sandbox and arms a timer only when
none is pending or the deadline moved earlier; a timer that finds its
sandbox reused sleeps on to the latest deadline.  The reference
(:class:`tests.faas.reference_reap.ReferenceReapInvoker`) arms one
timer per invocation end.  Driven by the same random arrivals and body
durations, under fixed timeouts of 1, 8 and 600 s and under a histogram
policy whose deadlines shrink and grow, both must destroy the same
sandboxes at the same instants, count the same reaps, start the same
invocations cold and drain to the same clock (under the histogram
policy, to no later a clock).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faas.invoker import Invoker
from repro.faas.keepalive import FixedKeepAlive, HistogramKeepAlive
from repro.faas.records import InvocationRecord, InvocationRequest
from repro.faas.registry import FunctionSpec
from repro.faas.sandbox import reset_sandbox_ids
from repro.sim import delay_until, Kernel
from tests.faas.reference_reap import ReferenceReapInvoker

FUNCTIONS = ("a", "b")
POLICIES = (1.0, 8.0, 600.0, "histogram")


def sleep_body(ctx):
    yield ctx.args["s"]


def make_policy(name):
    if name == "histogram":
        # A short window over few samples: the deadline follows the
        # latest gaps down and back up.
        return HistogramKeepAlive(
            min_history=2, window=3, default_s=30.0, floor_s=0.5, cap_s=60.0
        )
    return FixedKeepAlive(name)


def observe(invoker_cls, policy_name, arrivals):
    """Run ``arrivals`` (gap, function, body seconds) on one node and
    drain; what the reaper decided, and every timeout it was given.

    Destroy instants are keyed by sandbox: two sandboxes whose deadlines
    tie may be reaped in either order (the two reapers mint their
    timers' sequence numbers at different moments)."""
    reset_sandbox_ids()
    kernel = Kernel()
    invoker = invoker_cls(kernel, "w0", 1e6)
    policy = invoker.keepalive_policy = make_policy(policy_name)
    timeouts = []
    timeout_for = policy.timeout_for

    def logged_timeout_for(sandbox):
        timeouts.append(timeout_for(sandbox))
        return timeouts[-1]

    policy.timeout_for = logged_timeout_for
    destroyed, records = {}, []

    def on_sandbox(event, sandbox):
        if event == "destroyed":
            destroyed[sandbox.sandbox_id] = kernel.now

    invoker.listeners.append(on_sandbox)
    specs = {
        name: FunctionSpec(name=name, tenant="t", body=sleep_body) for name in FUNCTIONS
    }

    def invoke(spec, seconds):
        request = InvocationRequest(spec.name, "t", args={"s": seconds})
        record = InvocationRecord(request=request, submitted_at=kernel.now)
        records.append(record)
        yield from invoker.execute(spec, record, 256.0, None)

    def drive():
        for gap, name, seconds in arrivals:
            yield gap
            policy.record_invocation(specs[name].key, kernel.now)
            kernel.process(invoke(specs[name], seconds))

    kernel.process(drive())
    kernel.run()
    seen = {
        "destroyed": destroyed,
        "reaped": invoker.stats.sandboxes_reaped,
        "cold": [record.cold_start for record in records],
        "now": kernel.now,
    }
    return seen, timeouts


gaps = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.0, max_value=40.0),
)
seconds = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10.0))
arrivals = st.lists(
    st.tuples(gaps, st.sampled_from(FUNCTIONS), seconds), min_size=1, max_size=30
)

#: One function's rhythm: fast, slow, fast again (the histogram's
#: deadline shrinks, grows past the pending timer, shrinks under it).
RHYTHM = [
    (gap, "a", 0.5) for gap in (0.0, 1.0, 1.0, 1.0, 20.0, 20.0, 20.0, 1.0, 1.0, 1.0)
]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(POLICIES), arrivals)
@example("histogram", RHYTHM)
@example(8.0, [(0.0, "a", 2.0), (1.0, "a", 9.0), (3.0, "a", 0.0), (9.5, "b", 0.0)])
def test_deadline_reaps_like_a_timer_per_invocation(policy, arrivals):
    want, want_timeouts = observe(ReferenceReapInvoker, policy, arrivals)
    got, got_timeouts = observe(Invoker, policy, arrivals)
    assert got_timeouts == want_timeouts
    if policy == "histogram":
        # A deadline that a later end shortened leaves the reference a
        # no-op timer, which can run its drained clock past every reap.
        assert got.pop("now") <= want.pop("now")
    assert got == want


def test_the_histogram_rhythm_moves_deadlines_both_ways():
    """The explicit example above exercises what it is there for."""
    seen, timeouts = observe(Invoker, "histogram", RHYTHM)
    steps = [b - a for a, b in zip(timeouts, timeouts[1:])]
    assert any(step < 0 for step in steps) and any(step > 0 for step in steps)
    assert seen["reaped"] == len(seen["destroyed"]) == 2


def test_a_deadline_one_sleep_cannot_reach_is_reached_by_hopping():
    """The first timer fires at ``first``; the sandbox was reused and
    its deadline is ``last``, which no single sleep from ``first``
    lands on (see ``delay_until``): the timer hops twice."""
    first = 1.0 + 2.0**-52
    last = 3.5 + 2.0**-51
    assert first + delay_until(first, last) != last
    spec = FunctionSpec(name="a", tenant="t", body=sleep_body)
    results = []
    for invoker_cls in (ReferenceReapInvoker, Invoker):
        kernel = Kernel()
        invoker = invoker_cls(kernel, "w0", 2048.0)
        sandbox = kernel.run_until(kernel.process(invoker.create_sandbox(spec, 256.0)))
        for until, deadline in ((0.6, first), (0.75, last)):
            kernel.run(until=until)
            sandbox.reserve()
            sandbox.begin_invocation(kernel.now)
            sandbox.end_invocation(kernel.now)
            invoker.keepalive_policy = FixedKeepAlive(delay_until(kernel.now, deadline))
            invoker._schedule_reap(sandbox)
        destroyed = []
        invoker.listeners.append(lambda _event, _sandbox: destroyed.append(kernel.now))
        kernel.run()
        results.append((destroyed, invoker.stats.sandboxes_reaped, kernel.now))
    assert results[0] == results[1] == ([last], 1, last)
