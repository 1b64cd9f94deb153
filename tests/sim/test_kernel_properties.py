"""Property-based tests for the simulation kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Kernel
from tests.sim.reference_kernel import StepKernel


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=40))
def test_timeouts_fire_in_nondecreasing_time_order(delays):
    kernel = Kernel()
    fired = []

    def make(delay):
        def proc():
            yield kernel.timeout(delay)
            fired.append(kernel.now)

        return proc

    for delay in delays:
        kernel.process(make(delay)())
    kernel.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert kernel.now == max(delays)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=20
    )
)
def test_sequential_timeouts_accumulate_exactly(delays):
    kernel = Kernel()

    def proc():
        for delay in delays:
            yield kernel.timeout(delay)
        return kernel.now

    total = kernel.run_process(proc())
    assert abs(total - sum(delays)) < 1e-6 * max(1.0, sum(delays))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=1, max_value=30),
    st.floats(min_value=0.01, max_value=5.0),
)
def test_resource_conserves_units(capacity, n_workers, hold):
    """At no instant do granted units exceed capacity; all work finishes."""
    from repro.sim import Resource

    kernel = Kernel()
    resource = Resource(kernel, capacity)
    peaks = []
    done = []

    def worker():
        yield resource.acquire()
        peaks.append(resource.in_use)
        yield kernel.timeout(hold)
        resource.release()
        done.append(True)

    for _ in range(n_workers):
        kernel.process(worker())
    kernel.run()
    assert max(peaks) <= capacity
    assert len(done) == n_workers
    assert resource.in_use == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=30))
def test_all_of_collects_every_value(n):
    kernel = Kernel()
    timeouts = [kernel.timeout(float(i), value=i) for i in range(n)]

    def proc():
        results = yield kernel.all_of(timeouts)
        return sorted(results.values())

    assert kernel.run_process(proc()) == list(range(n))


# -- the generated loop against the step oracle, over generated programs ----
#
# A program is a handful of processes, each a list of ops drawn from
# everything a process can do to the kernel, plus a driver that slices
# the run with run(until=...) / run_until(...).  The (time, tag) log,
# every process's outcome, every exception that escapes the loop and the
# final clock must be equal on Kernel (repro.sim.fastpath's generated
# run/run_until) and StepKernel (step() -> _run_callbacks -> _resume).

N_EVENTS = 3
#: Few distinct values, so same-instant ties are common; 0 and the ints
#: take the zero-delay and ``cls is int`` branches of the sleep arm.
_delays = st.sampled_from([0, 0.0, 0.25, 0.5, 0.5, 1, 1.0, 1.75])
_event_ids = st.integers(0, N_EVENTS - 1)
_proc_ids = st.integers(0, 7)  # taken modulo the number of processes
_members = st.lists(st.one_of(_delays, _event_ids.map(str)), max_size=3)
_ops = st.one_of(
    st.tuples(st.just("sleep"), _delays),
    st.tuples(st.just("timeout"), _delays),
    st.tuples(st.just("wait"), _event_ids),
    st.tuples(st.just("succeed"), _event_ids),
    st.tuples(st.just("fail"), _event_ids),
    st.tuples(st.just("join"), _delays, st.booleans()),
    st.tuples(st.just("all_of"), _members),
    st.tuples(st.just("call_later"), _delays),
)
#: The ops of each process.
_programs = st.lists(st.lists(_ops, max_size=8), min_size=1, max_size=5)
_slices = st.lists(
    st.one_of(
        st.tuples(st.just("until"), _delays),
        st.tuples(st.just("until_proc"), _proc_ids),
        st.tuples(st.just("until_event"), _event_ids),
    ),
    max_size=4,
)


def _execute(k, program, slices):
    log = []
    events = [k.event() for _ in range(N_EVENTS)]
    procs = []

    def child(delay, fails):
        yield delay
        if fails:
            raise ValueError("child")
        return delay

    def condition(members):
        # A str member names a shared event, anything else is a delay.
        return [
            events[int(m)] if isinstance(m, str) else k.timeout(m, value=i)
            for i, m in enumerate(members)
        ]

    def do(pid, n, op):
        kind, arg = op[0], op[1]
        if kind == "sleep":
            yield arg
        elif kind == "timeout":
            return (yield k.timeout(arg, value=n))
        elif kind == "wait":
            return (yield events[arg])
        elif kind == "succeed" and not events[arg].triggered:
            events[arg].succeed(100 * pid + n)
        elif kind == "fail" and not events[arg].triggered:
            events[arg].fail(RuntimeError(f"{pid}.{n}"))
        elif kind == "join":
            return (yield k.process(child(arg, op[2])))
        elif kind == "all_of":
            return (yield k.all_of(condition(arg)))
        elif kind == "call_later":
            k.call_later(lambda: arg, lambda _e: log.append((k.now, pid, n, "later")))

    def body(pid, ops):
        for n, op in enumerate(ops):
            try:
                got = yield from do(pid, n, op)
                if op[0] == "all_of":
                    # The condition's {event: value}; events differ per run.
                    got = sorted(got.values())
                log.append((k.now, pid, n, op[0], got))
            except (RuntimeError, ValueError) as exc:
                log.append((k.now, pid, n, "caught", type(exc).__name__, str(exc)))
        return pid

    def attempt(tag, run):
        try:
            log.append((k.now, tag, run()))
            return True
        except BaseException as exc:  # noqa: BLE001 - the type is the datum
            log.append((k.now, tag, "raised", type(exc).__name__))
            return False

    for pid, ops in enumerate(program):
        procs.append(k.process(body(pid, ops)))
    for kind, arg in slices:
        if kind == "until":
            attempt(kind, lambda: k.run(until=k.now + arg))
        elif kind == "until_proc":
            attempt(kind, lambda: k.run_until(procs[arg % len(procs)]))
        else:
            attempt(kind, lambda: k.run_until(events[arg]))
    # Drain; every escaping failure consumed its event, so this ends.
    while not attempt("run", k.run):
        pass
    outcomes = [
        (p.triggered, p._value, type(p._exception).__name__) for p in procs
    ]
    return log, outcomes, k.now


@settings(max_examples=300, deadline=None)
@given(_programs, _slices)
def test_generated_loop_equals_step_oracle_on_generated_programs(program, slices):
    assert _execute(Kernel(), program, slices) == _execute(
        StepKernel(), program, slices
    )
