"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import AllOf, Kernel, SimulationError


def test_clock_starts_at_zero():
    kernel = Kernel()
    assert kernel.now == 0.0


def test_timeout_advances_clock():
    kernel = Kernel()
    kernel.timeout(5.0)
    kernel.run()
    assert kernel.now == 5.0


def test_run_until_stops_early():
    kernel = Kernel()
    kernel.timeout(10.0)
    kernel.run(until=3.0)
    assert kernel.now == 3.0


def test_run_until_advances_past_drained_queue():
    kernel = Kernel()
    kernel.timeout(1.0)
    kernel.run(until=60.0)
    assert kernel.now == 60.0


def test_run_until_in_past_raises():
    kernel = Kernel()
    kernel.timeout(5.0)
    kernel.run()
    with pytest.raises(SimulationError):
        kernel.run(until=1.0)


def test_process_sequences_timeouts():
    kernel = Kernel()
    trace = []

    def proc():
        trace.append(kernel.now)
        yield kernel.timeout(2.0)
        trace.append(kernel.now)
        yield kernel.timeout(3.0)
        trace.append(kernel.now)

    kernel.process(proc())
    kernel.run()
    assert trace == [0.0, 2.0, 5.0]


def test_process_return_value():
    kernel = Kernel()

    def proc():
        yield kernel.timeout(1.0)
        return 42

    assert kernel.run_process(proc()) == 42


def test_timeout_carries_value():
    kernel = Kernel()

    def proc():
        got = yield kernel.timeout(1.0, value="payload")
        return got

    assert kernel.run_process(proc()) == "payload"


def test_event_succeed_resumes_waiter():
    kernel = Kernel()
    gate = kernel.event()

    def opener():
        yield kernel.timeout(4.0)
        gate.succeed("open")

    def waiter():
        value = yield gate
        return (kernel.now, value)

    kernel.process(opener())
    result = kernel.run_process(waiter())
    assert result == (4.0, "open")


def test_event_fail_raises_in_waiter():
    kernel = Kernel()
    gate = kernel.event()

    def failer():
        yield kernel.timeout(1.0)
        gate.fail(ValueError("boom"))

    def waiter():
        try:
            yield gate
        except ValueError as exc:
            return str(exc)
        return "no exception"

    kernel.process(failer())
    assert kernel.run_process(waiter()) == "boom"


def test_unhandled_process_exception_propagates():
    kernel = Kernel()

    def bad():
        yield kernel.timeout(1.0)
        raise RuntimeError("unhandled")

    kernel.process(bad())
    with pytest.raises(RuntimeError, match="unhandled"):
        kernel.run()


def test_waiting_on_failed_process_rethrows():
    kernel = Kernel()

    def bad():
        yield kernel.timeout(1.0)
        raise RuntimeError("inner")

    def outer():
        try:
            yield kernel.process(bad())
        except RuntimeError as exc:
            return f"caught {exc}"

    assert kernel.run_process(outer()) == "caught inner"


def test_event_double_trigger_raises():
    kernel = Kernel()
    event = kernel.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_negative_timeout_raises():
    kernel = Kernel()
    with pytest.raises(SimulationError):
        kernel.timeout(-1.0)


def test_same_time_events_fire_in_schedule_order():
    kernel = Kernel()
    trace = []

    def make(name):
        def proc():
            yield kernel.timeout(1.0)
            trace.append(name)

        return proc

    for name in ["a", "b", "c"]:
        kernel.process(make(name)())
    kernel.run()
    assert trace == ["a", "b", "c"]


def test_waiting_on_already_processed_event():
    kernel = Kernel()
    done = kernel.event()
    done.succeed("early")
    kernel.run()

    def late():
        value = yield done
        return value

    assert kernel.run_process(late()) == "early"


def test_all_of_waits_for_all():
    kernel = Kernel()
    t1 = kernel.timeout(1.0, value="one")
    t2 = kernel.timeout(5.0, value="five")

    def proc():
        results = yield AllOf(kernel, [t1, t2])
        return (kernel.now, results[t1], results[t2])

    assert kernel.run_process(proc()) == (5.0, "one", "five")


def test_all_of_empty_triggers_immediately():
    kernel = Kernel()

    def proc():
        results = yield kernel.all_of([])
        return results

    assert kernel.run_process(proc()) == {}


def test_all_of_fails_when_member_fails():
    kernel = Kernel()
    bad = kernel.event()

    def failer():
        yield kernel.timeout(1.0)
        bad.fail(KeyError("nope"))

    def proc():
        try:
            yield kernel.all_of([bad, kernel.timeout(10.0)])
        except KeyError:
            return kernel.now

    kernel.process(failer())
    assert kernel.run_process(proc()) == 1.0


def test_yielding_non_event_raises():
    kernel = Kernel()

    def bad():
        yield "not an event"

    kernel.process(bad())
    with pytest.raises(SimulationError, match="expected an Event"):
        kernel.run()


def test_yielding_bare_delay_sleeps():
    # Fast sleep path: `yield <float|int>` behaves like yielding a
    # kernel.timeout of the same delay.
    kernel = Kernel()
    wakes = []

    def sleeper():
        yield 1.5
        wakes.append(kernel.now)
        yield 2  # ints work too
        wakes.append(kernel.now)
        yield 0.0  # zero sleep resumes in the same instant
        wakes.append(kernel.now)

    kernel.run_process(sleeper())
    assert wakes == [1.5, 3.5, 3.5]


def test_bare_delay_orders_like_timeout():
    # A bare-delay sleep consumes the same schedule slot as the
    # equivalent timeout: same-instant wakes interleave identically.
    def run(variant):
        kernel = Kernel()
        order = []

        def a():
            if variant == "sleep":
                yield 1.0
            else:
                yield kernel.timeout(1.0)
            order.append("a")

        def b():
            yield kernel.timeout(1.0)
            order.append("b")

        kernel.process(a())
        kernel.process(b())
        kernel.run()
        return order

    assert run("sleep") == run("timeout") == ["a", "b"]


def test_negative_bare_delay_raises():
    kernel = Kernel()

    def bad():
        yield -1.0

    kernel.process(bad())
    with pytest.raises(SimulationError, match="negative sleep delay"):
        kernel.run()


def test_deadlock_detection_in_run_process():
    kernel = Kernel()
    never = kernel.event()

    def stuck():
        yield never

    with pytest.raises(SimulationError, match="deadlock"):
        kernel.run_process(stuck())


def test_nested_processes():
    kernel = Kernel()

    def child(duration, value):
        yield kernel.timeout(duration)
        return value

    def parent():
        first = yield kernel.process(child(2.0, "a"))
        second = yield kernel.process(child(3.0, "b"))
        return (first, second, kernel.now)

    assert kernel.run_process(parent()) == ("a", "b", 5.0)


def test_event_value_before_trigger_raises():
    kernel = Kernel()
    event = kernel.event()
    with pytest.raises(SimulationError):
        _ = event.value
