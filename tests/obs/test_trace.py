"""Unit tests for the span tracer (repro.obs.trace)."""

import pytest

from repro.obs.trace import (
    enable_tracing,
    reset_tracing,
    Tracer,
    tracer_for_clock,
    tracing_enabled,
)
from repro.sim import Kernel


@pytest.fixture(autouse=True)
def _clean_tracing():
    reset_tracing()
    yield
    reset_tracing()


def test_span_timing_follows_sim_clock():
    kernel = Kernel()
    tracer = Tracer(lambda: kernel.now)
    observed = {}

    def proc():
        span = tracer.start("op", stage="demo")
        yield kernel.timeout(2.5)
        span.finish(status="ok")
        observed["span"] = span

    kernel.process(proc())
    kernel.run()

    span = observed["span"]
    assert span.start == 0.0
    assert span.end == 2.5
    assert span.duration == 2.5
    assert span.labels == {"stage": "demo", "status": "ok"}


def test_finish_is_idempotent():
    clock = {"t": 0.0}
    tracer = Tracer(lambda: clock["t"])
    span = tracer.start("op")
    clock["t"] = 1.0
    span.finish()
    clock["t"] = 9.0
    span.finish()
    assert span.end == 1.0
    assert len(tracer.spans) == 1


def test_unfinished_span_duration_raises():
    tracer = Tracer()
    span = tracer.start("op")
    with pytest.raises(ValueError):
        _ = span.duration


def test_summary_aggregates_per_name():
    clock = {"t": 0.0}
    tracer = Tracer(lambda: clock["t"])
    for duration in (1.0, 3.0):
        clock["t"] = 0.0
        span = tracer.start("op")
        clock["t"] = duration
        span.finish()
    summary = tracer.summary()
    assert summary["op"]["count"] == 2
    assert summary["op"]["total_s"] == 4.0
    assert summary["op"]["min_s"] == 1.0
    assert summary["op"]["max_s"] == 3.0
    assert summary["op"]["mean_s"] == 2.0


def test_max_spans_drops_overflow():
    tracer = Tracer(max_spans=2)
    for _ in range(5):
        tracer.start("op").finish()
    assert len(tracer.spans) == 2
    assert tracer.dropped == 3
    assert tracer.started == 5


def test_global_switch_controls_kernel_tracers():
    assert not tracing_enabled()
    assert Kernel().tracer is None

    enable_tracing()
    kernel = Kernel()
    assert isinstance(kernel.tracer, Tracer)

    reset_tracing()
    assert Kernel().tracer is None


def test_tracer_for_clock_registers_tracers():
    from repro.obs.trace import active_tracers

    enable_tracing()
    a = tracer_for_clock(lambda: 0.0)
    b = tracer_for_clock(lambda: 0.0)
    assert a is not b
    assert active_tracers() == [a, b]
    reset_tracing()
    assert active_tracers() == []
