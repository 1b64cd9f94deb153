"""Kernel event-loop throughput, with and without tracing.

Five synthetic patterns in events per second: the sleep chain is the
dominant one in the real simulations (all model code sleeps via bare
delays), the others cover the rest of the dispatch loop.  Tracing is a
per-kernel decision made at construction, so a kernel built while
tracing is disabled has no tracer and pays nothing for the
observability layer; a traced kernel must stay within a bound of it.
"""

from time import perf_counter

from benchmarks.conftest import save_result
from repro.bench.reporting import format_table
from repro.obs import enable_tracing, reset_tracing
from repro.sim import Event, Kernel

N = 50_000


def _run_timed(kernel: Kernel, events: int) -> float:
    start = perf_counter()
    kernel.run()
    return events / (perf_counter() - start)


def _sleep(n: int = N) -> float:
    """Back-to-back bare-delay sleeps, one per event."""
    kernel = Kernel()

    def proc():
        for _ in range(n):
            yield 1.0

    kernel.process(proc())
    return _run_timed(kernel, n)


def _chain(n: int) -> float:
    """Sequential timeout objects (the pre-fast-path sleep idiom)."""
    kernel = Kernel()

    def proc():
        for _ in range(n):
            yield kernel.timeout(1.0)

    kernel.process(proc())
    return _run_timed(kernel, n)


def _churn(n: int) -> float:
    """Process churn: spawn/bootstrap/terminate short-lived processes."""
    kernel = Kernel()

    def child():
        yield kernel.timeout(0.5)

    def spawner():
        for _ in range(n):
            yield kernel.process(child())

    kernel.process(spawner())
    return _run_timed(kernel, 3 * n)


def _event(n: int) -> float:
    """Event signaling: producer/consumer ping-pong via succeed()."""
    kernel = Kernel()
    box = {"ev": None}

    def producer():
        for _ in range(n):
            yield kernel.timeout(0.001)
            ev = box["ev"]
            if ev is not None:
                box["ev"] = None
                ev.succeed(42)

    def consumer():
        for _ in range(n):
            ev = Event(kernel)
            box["ev"] = ev
            yield ev

    kernel.process(producer())
    kernel.process(consumer())
    return _run_timed(kernel, 3 * n)


def _immediate(n: int) -> float:
    """Same-instant delivery: pre-triggered events yielded in a loop."""
    kernel = Kernel()

    def proc():
        for _ in range(n):
            ev = Event(kernel)
            ev.succeed(1)
            yield ev

    kernel.process(proc())
    return _run_timed(kernel, n)


KERNEL_PATTERNS = {
    "sleep": _sleep,
    "chain": _chain,
    "churn": _churn,
    "event": _event,
    "immediate": _immediate,
}


def test_kernel_sleep_chain(benchmark):
    rate = benchmark.pedantic(_sleep, rounds=3, iterations=1)
    # Even on slow shared CI hardware the sleep fast path clears this
    # floor by a wide margin (dev machine: ~2M events/s).
    assert rate > 100_000


def test_kernel_patterns_report(benchmark):
    def run_all():
        return {
            name: fn(N) for name, fn in sorted(KERNEL_PATTERNS.items())
        }

    rates = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = format_table(
        ["pattern", "events/s"],
        [(name, f"{rate:,.0f}") for name, rate in rates.items()],
        title="Kernel microbenchmarks",
    )
    save_result("kernel_microbench", table)
    assert all(rate > 50_000 for rate in rates.values())


def test_tracing_overhead_is_bounded(benchmark):
    # Tracing off (the default): kernels have no tracer, and the run loop
    # never consults it on the hot path.
    reset_tracing()
    off = max(_sleep() for _ in range(3))
    try:
        enable_tracing()
        on = max(_sleep() for _ in range(3))
    finally:
        reset_tracing()
    benchmark.pedantic(_sleep, rounds=1, iterations=1)
    # Plain processes are not traced individually, so enabling tracing
    # must not halve kernel throughput (observed: well under 10%).
    assert on > 0.5 * off, f"tracing on {on:,.0f} vs off {off:,.0f} ev/s"
