"""Dispatch-order parity: the drain loop against the step oracle.

Every test drives the same scenario through a production ``Kernel``
(``run``/``run_until`` over the one loop, ``Kernel._drain``) and a
``StepKernel`` (``step()`` → ``_run_callbacks`` → ``Process._resume``,
see ``reference_kernel.py``), and requires the observable traces —
(time, tag) logs, return values, final clocks — to be *equal*, not
approximately equal.  The coverage is the kernel patterns themselves
(sleep chains, same-instant ties, zero delays, events, fan-in,
run-until, limits, call_later); ``test_kernel_properties.py`` checks the
space between them.
"""

import ast
import inspect
import pathlib
import textwrap

import pytest

import repro
from repro.sim import kernel as kernel_module
from repro.sim.kernel import Event, Kernel, Process, SimulationError
from tests.sim.reference_kernel import StepKernel


@pytest.fixture
def both_kernels():
    """Yield a factory for (drain-loop, step-oracle) kernel pairs."""
    return lambda: (Kernel(), StepKernel())


def _run_scenario(kernel, scenario):
    log = []
    scenario(kernel, log)
    return log


def _assert_parity(make, scenario, runner=None):
    traces = []
    for kernel in make():
        log = []
        result = scenario(kernel, log)
        if runner is not None:
            result = runner(kernel, result, log)
        traces.append((log, result, kernel.now))
    assert traces[0] == traces[1]
    return traces[0]


# -- scenarios --------------------------------------------------------------


def test_sleep_chain_parity(both_kernels):
    def scenario(k, log):
        def sleeper(name, delay, reps):
            for i in range(reps):
                yield delay
                log.append((k.now, name, i))

        for i, delay in enumerate([0.5, 0.75, 1.0, 1.25]):
            k.process(sleeper(f"s{i}", delay, 10))
        k.run()

    _assert_parity(both_kernels, scenario)


def test_same_instant_tie_order_parity(both_kernels):
    def scenario(k, log):
        def worker(name):
            yield 1.0  # all wake at the same instant: seq order decides
            log.append((k.now, name))
            yield 0.0  # zero-delay: FIFO at the same instant
            log.append((k.now, name, "z"))

        for i in range(6):
            k.process(worker(f"w{i}"))
        k.run()

    log = _assert_parity(both_kernels, scenario)[0]
    names = [entry[1] for entry in log if len(entry) == 2]
    assert names == [f"w{i}" for i in range(6)]  # spawn order preserved


def test_event_blocking_and_values_parity(both_kernels):
    def scenario(k, log):
        gate = k.event()

        def waiter(name):
            value = yield gate
            log.append((k.now, name, value))
            got = yield k.timeout(0.5, value=name)
            log.append((k.now, name, got))

        def opener():
            yield 2.0
            gate.succeed("open")

        for i in range(3):
            k.process(waiter(f"w{i}"))
        k.process(opener())
        k.run()

    _assert_parity(both_kernels, scenario)


def test_all_of_any_of_parity(both_kernels):
    def scenario(k, log):
        def combo():
            yield k.all_of([k.timeout(1.0), k.timeout(3.0)])
            log.append((k.now, "allof"))

        def noise():
            for _ in range(20):
                yield 0.3
                log.append((k.now, "n"))

        k.process(combo())
        k.process(noise())
        k.run()

    _assert_parity(both_kernels, scenario)


def test_failed_event_single_waiter_parity(both_kernels):
    """The fused single-callback arm must deliver failures by throw()."""

    def scenario(k, log):
        gate = k.event()

        def waiter():
            try:
                yield gate
                log.append((k.now, "unreachable"))
            except RuntimeError as exc:
                log.append((k.now, "caught", str(exc)))
                yield 0.5
                log.append((k.now, "after"))

        def failer():
            yield 1.0
            gate.fail(RuntimeError("boom"))

        k.process(waiter())
        k.process(failer())
        k.run()

    _assert_parity(both_kernels, scenario)


def test_fan_in_with_failures_parity(both_kernels):
    """List delivery of a failure: an AllOf check and a joining process
    wait on the same failing member."""

    def scenario(k, log):
        def fail_after(delay):
            yield delay
            raise ValueError(f"dead@{delay}")

        def joiner(proc):
            try:
                yield proc
            except ValueError as exc:
                log.append((k.now, "join-failed", str(exc)))

        def combo():
            failing = k.process(fail_after(2.0))
            k.process(joiner(failing))
            try:
                yield k.all_of([k.timeout(1.0), failing])
            except ValueError as exc:
                log.append((k.now, "allof-failed", str(exc)))

        def noise():
            for _ in range(12):
                yield 0.4
                log.append((k.now, "n"))

        k.process(combo())
        k.process(noise())
        k.run()

    _assert_parity(both_kernels, scenario)


def test_late_wait_redelivery_parity(both_kernels):
    """Waiting on an event that already fired (redelivery scheduling)."""

    def scenario(k, log):
        gate = k.event()

        def early():
            value = yield gate
            log.append((k.now, "early", value))

        def late():
            yield 3.0  # gate fired at t=1; wait on it afterwards
            value = yield gate
            log.append((k.now, "late", value))

        def opener():
            yield 1.0
            gate.succeed("open")

        k.process(early())
        k.process(late())
        k.process(opener())
        k.run()

    _assert_parity(both_kernels, scenario)


def test_run_until_awaited_event_delivery_parity(both_kernels):
    """run_until's target guard: delivery to the awaited event must
    stop the loop at the same instant with identical leftovers."""

    def scenario(k, log):
        gate = k.event()

        def opener():
            yield 2.5
            gate.succeed("done")

        def noise():
            for _ in range(10):
                yield 0.7
                log.append((k.now, "n"))

        k.process(opener())
        k.process(noise())
        value = k.run_until(gate)
        log.append((k.now, "until", value))
        k.run()  # drain leftovers identically

    _assert_parity(both_kernels, scenario)


def test_process_join_and_return_value_parity(both_kernels):
    def scenario(k, log):
        def child(n):
            yield 0.25 * n
            return n * n

        def parent():
            total = 0
            for n in range(1, 5):
                total += yield k.process(child(n))
            log.append((k.now, "total", total))
            return total

        result = k.run_process(parent())
        log.append(("result", result))

    _assert_parity(both_kernels, scenario)


def test_run_until_limit_boundary_parity(both_kernels):
    def scenario(k, log):
        def ticker():
            while True:
                yield 1.0
                log.append(k.now)

        k.process(ticker())
        k.run(until=5.0)  # boundary: wake at exactly 5.0 must fire
        log.append(("clock", k.now))
        k.run(until=7.5)  # resume drains leftovers, then advances
        log.append(("clock", k.now))

    _assert_parity(both_kernels, scenario)


def test_run_until_event_parity(both_kernels):
    def scenario(k, log):
        def late():
            yield 4.0
            log.append((k.now, "late"))
            return "done"

        def noise():
            for _ in range(30):
                yield 0.9
                log.append((k.now, "n"))

        proc = k.process(late())
        k.process(noise())
        value = k.run_until(proc)
        log.append((value, k.now))
        k.run()  # drain the leftover noise identically

    _assert_parity(both_kernels, scenario)


def test_negative_delay_raises_on_both(both_kernels):
    for kernel in both_kernels():
        def bad():
            yield -1.0

        kernel.process(bad())
        with pytest.raises(SimulationError, match="negative sleep delay"):
            kernel.run()


def test_non_event_yield_raises_on_both(both_kernels):
    for kernel in both_kernels():
        def bad():
            yield "nonsense"

        kernel.process(bad(), name="bad")
        with pytest.raises(SimulationError, match="expected an Event"):
            kernel.run()


def test_foreign_event_yield_raises_on_both(both_kernels):
    for kernel in both_kernels():
        elsewhere = Kernel().event()

        def bad():
            yield elsewhere

        kernel.process(bad())
        with pytest.raises(SimulationError, match="another kernel"):
            kernel.run()


def test_run_until_on_a_drained_queue_raises_on_both(both_kernels):
    for kernel in both_kernels():
        def sleeper():
            yield 1.0

        kernel.process(sleeper())
        with pytest.raises(SimulationError, match="queue drained"):
            kernel.run_until(kernel.event())  # nobody will trigger it
        assert kernel.now == 1.0


def test_deadlock_detection_parity(both_kernels):
    for kernel in both_kernels():
        def stuck():
            yield kernel.event()  # never succeeds

        with pytest.raises(SimulationError, match="deadlocked"):
            kernel.run_process(stuck())


def test_process_failure_propagates_on_both(both_kernels):
    for kernel in both_kernels():
        def boom():
            yield 1.0
            raise ValueError("kaboom")

        kernel.process(boom())
        with pytest.raises(ValueError, match="kaboom"):
            kernel.run()


def test_call_later_is_slot_identical_to_a_process(both_kernels):
    """call_later must reproduce the discarded-handle process schedule."""

    def scenario_process(k, log):
        def nap():
            yield 2.5
            log.append((k.now, "fired"))

        def tie():
            yield 2.5
            log.append((k.now, "tie"))

        k.process(nap())
        k.process(tie())
        k.run()

    def scenario_call_later(k, log):
        k.call_later(lambda: 2.5, lambda _e: log.append((k.now, "fired")))

        def tie():
            yield 2.5
            log.append((k.now, "tie"))

        k.process(tie())
        k.run()

    for make in (both_kernels,):
        fast, generic = make()
        a = _run_scenario(fast, scenario_call_later)
        b = _run_scenario(generic, scenario_process)
        assert a == b  # same instants, same tie order


def test_call_later_zero_delay_fires_this_instant(both_kernels):
    for kernel in both_kernels():
        log = []

        def spawner():
            yield 1.0
            kernel.call_later(lambda: 0.0, lambda _e: log.append(kernel.now))

        kernel.process(spawner())
        kernel.run()
        assert log == [1.0]


def test_call_later_without_callback_draws_and_schedules_no_wake(both_kernels):
    """Nothing waits on a callback-less sleep: its delay is drawn at the
    arming slot and no fire event reaches the queue."""
    for kernel in both_kernels():
        draws = []

        def draw():
            draws.append(kernel.now)
            return 3.0

        def spawner():
            yield 1.0
            kernel.call_later(draw)
            assert draws == []  # drawn at the arming slot, not inline

        kernel.process(spawner())
        kernel.run()
        assert draws == [1.0]
        assert kernel.now == 1.0  # no wake at 4.0
        assert not kernel._queue and not kernel._immediate


def test_mixed_scenario_parity(both_kernels):
    """Sleeps, a shared gate, timeouts and process joins interleaved."""

    def scenario(k, log):
        gate = k.event()

        def waiter(name):
            value = yield gate
            log.append((k.now, name, value))
            yield k.timeout(0.25)
            log.append((k.now, name, "done"))

        def sleeper():
            for i in range(8):
                yield 0.4
                log.append((k.now, "tick", i))

        def opener():
            yield 1.1
            gate.succeed("open")

        def child(n):
            yield 0.2 * n
            return n

        def parent():
            total = 0
            for n in range(1, 4):
                total += yield k.process(child(n))
            log.append((k.now, "total", total))

        for i in range(3):
            k.process(waiter(f"w{i}"))
        k.process(sleeper())
        k.process(opener())
        k.process(parent())
        k.run()

    _assert_parity(both_kernels, scenario)


# -- one loop ---------------------------------------------------------------


def test_every_kernel_runs_the_one_loop():
    """Clean, traced and fault-injected kernels share one run/run_until:
    ordinary methods written in ``repro/sim/kernel.py``, nothing
    per-instance to select."""
    from repro.core.ofc import OFCPlatform
    from repro.faults.injector import FaultInjector
    from repro.faults.schedule import FaultSchedule
    from repro.obs import trace as trace_mod

    for method in (Kernel.run, Kernel.run_until, Kernel._drain):
        assert method.__code__.co_filename == kernel_module.__file__
    trace_mod.enable_tracing()
    try:
        traced = Kernel()
    finally:
        trace_mod.reset_tracing()
    ofc = OFCPlatform(seed=1)
    FaultInjector(ofc, FaultSchedule(events=[]))
    for kernel in (Kernel(), traced, ofc.kernel):
        assert type(kernel) is Kernel
        assert kernel.run.__func__ is Kernel.run
        assert kernel.run_until.__func__ is Kernel.run_until


def test_kernel_has_one_inlined_advance():
    """Process._resume and its one inlined copy in the loop: the
    termination arm of a generator advance appears nowhere else."""
    src = inspect.getsource(kernel_module)
    assert src.count("except StopIteration") == 2
    for method in (Process._resume, Kernel._drain):
        assert inspect.getsource(method).count("except StopIteration") == 1


def test_loop_stores_only_what_something_reads():
    """The per-resume store budget: the clock, and an event's state,
    waiters, outcome and ``defused`` handshake — nothing per process.
    A process waits as itself: the loop registers and recognizes the
    process object, never a bound method of it."""
    loop = ast.parse(textwrap.dedent(inspect.getsource(Kernel._drain)))
    attributes = [
        node for node in ast.walk(loop) if isinstance(node, ast.Attribute)
    ]
    stored = {node.attr for node in attributes if isinstance(node.ctx, ast.Store)}
    assert stored == {"now", "_state", "callbacks", "defused", "_value", "_exception"}
    loaded = {node.attr for node in attributes}
    assert not loaded & {"_cb", "_resume", "__func__", "__self__"}
    assert Process.__slots__ == ("generator", "name", "_send", "_throw")
    assert Process.__call__ is Process._resume


def test_every_event_is_built_with_every_event_field():
    """One field layout: whatever puts an occurrence on the queue sets
    all seven ``Event.__slots__``, so no read of one needs a guard."""
    k = Kernel()
    k.call_later(lambda: 3.0, lambda _event: None)
    arming = k._immediate[0]
    k.step()  # the arming callback puts the fire event on the heap
    fire = k._queue[0][2]

    def body():
        yield 1.0

    built = [
        arming,
        fire,
        k.event(),
        k.timeout(1.0),
        k.process(body()),
        k.all_of([k.timeout(2.0)]),
        Event(k),
    ]
    for event in built:
        for field in Event.__slots__:
            getattr(event, field)  # AttributeError if a constructor skipped it


def test_no_code_is_compiled_at_run_time():
    """Every loop is written out: nothing under ``src/repro`` calls the
    ``exec`` or ``compile`` builtins."""
    calls = []
    for path in sorted(pathlib.Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("exec", "compile")
            ):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []
