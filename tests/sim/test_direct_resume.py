"""Where the drain loop resumes a sleeping process directly.

Direct resume (``Kernel._drain``) skips the heap round trip of a wake
that is the next occurrence anyway, so it never changes the order of
anything: the parity suites cannot see whether it fired.  These tests
count the heap sequence numbers a run mints instead.  ``kernel._seqn()``
mints one itself, so the mints between two calls are their difference
minus one.
"""

from repro.sim.kernel import Kernel


def _mints_during(kernel, run):
    before = kernel._seqn()
    result = run()
    return kernel._seqn() - before - 1, result


def test_run_until_an_awaited_sleeper_mints_nothing():
    """The awaited process's own wakes are direct-resumed: only the
    delivery of its termination stops the loop."""
    kernel = Kernel()
    n = 50

    def sleeper():
        for _ in range(n):
            yield 1.0
        return "done"

    proc = kernel.process(sleeper())
    mints, value = _mints_during(kernel, lambda: kernel.run_until(proc))
    assert (mints, value, kernel.now) == (0, "done", float(n))
    assert not kernel._queue and not kernel._immediate


def test_run_with_a_limit_never_resumes_past_it():
    for until in (5.0, 5.5):
        kernel = Kernel()
        log = []

        def ticker():
            for _ in range(10):
                yield 1.0
                log.append(kernel.now)

        proc = kernel.process(ticker())
        mints, _ = _mints_during(kernel, lambda: kernel.run(until=until))
        assert log == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert kernel.now == until
        # Every wake up to the limit was direct; the first one past it
        # is the one heap entry the run minted, still waiting there.
        assert mints == 1
        ((wake, _seq, waiting),) = kernel._queue
        assert (wake, waiting) == (6.0, proc)


def test_run_until_stops_at_the_instant_its_event_is_delivered():
    """The waiter's next sleep could be direct-resumed (empty FIFO,
    earliest wake), but ``run_until`` returns at the delivery instant
    and leaves that wake on the heap."""
    kernel = Kernel()
    gate = kernel.event()
    log = []

    def waiter():
        value = yield gate
        log.append((kernel.now, value))
        yield 1.0
        log.append((kernel.now, "slept"))

    def opener():
        yield 2.0
        gate.succeed("open")
        yield 10.0  # stays alive: nothing else is left on the FIFO

    kernel.process(waiter())
    kernel.process(opener())
    assert kernel.run_until(gate) == "open"
    assert kernel.now == 2.0
    assert log == [(2.0, "open")]
    assert not kernel._immediate
    assert sorted(entry[0] for entry in kernel._queue) == [3.0, 12.0]
    kernel.run()
    assert log == [(2.0, "open"), (3.0, "slept")]
    assert kernel.now == 12.0
