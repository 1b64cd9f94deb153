"""Unit tests for the stock scheduler and invocation records."""

import pytest

from repro.faas.invoker import Invoker
from repro.faas.records import InvocationRecord, InvocationRequest, Phases
from repro.faas.registry import FunctionSpec
from repro.faas.scheduler import home_index, HomeWorkerScheduler
from repro.sim import Kernel


def make_invokers(kernel, n=4, total_mb=2048.0):
    return [Invoker(kernel, f"w{i}", total_mb) for i in range(n)]


def test_home_index_is_deterministic():
    assert home_index("t", "f", 4) == home_index("t", "f", 4)


def test_home_index_spreads_functions():
    indices = {home_index("t", f"f{i}", 4) for i in range(40)}
    assert indices == {0, 1, 2, 3}


def test_scheduler_prefers_home_worker():
    kernel = Kernel()
    invokers = make_invokers(kernel)
    scheduler = HomeWorkerScheduler()
    request = InvocationRequest(function="f", tenant="t")
    expected = invokers[home_index("t", "f", 4)]
    assert scheduler.choose_node(request, 256.0, invokers) is expected


def test_scheduler_prefers_warm_sandbox_anywhere():
    kernel = Kernel()
    invokers = make_invokers(kernel)
    scheduler = HomeWorkerScheduler()
    request = InvocationRequest(function="f", tenant="t")
    home = home_index("t", "f", 4)
    other = invokers[(home + 2) % 4]

    def body(ctx):
        return
        yield  # pragma: no cover

    spec = FunctionSpec(name="f", tenant="t", body=body)
    kernel.run_until(kernel.process(other.create_sandbox(spec, 256.0)))
    assert scheduler.choose_node(request, 256.0, invokers) is other


def test_scheduler_skips_full_home():
    kernel = Kernel()
    invokers = make_invokers(kernel, total_mb=512.0)
    scheduler = HomeWorkerScheduler()
    request = InvocationRequest(function="f", tenant="t")
    start = home_index("t", "f", 4)
    # Round-robin from the home index, wrapping past the last node.
    for step in range(3):
        invokers[(start + step) % 4].cache_reserved_mb = 512.0  # out of memory
        chosen = scheduler.choose_node(request, 256.0, invokers)
        assert chosen is invokers[(start + step + 1) % 4]


def test_scheduler_respects_exclusions():
    kernel = Kernel()
    invokers = make_invokers(kernel)
    scheduler = HomeWorkerScheduler()
    request = InvocationRequest(function="f", tenant="t")
    exclude = {inv.node_id for inv in invokers[:3]}
    chosen = scheduler.choose_node(request, 256.0, invokers, exclude=exclude)
    assert chosen is invokers[3]
    assert (
        scheduler.choose_node(
            request, 256.0, invokers, exclude={i.node_id for i in invokers}
        )
        is None
    )


# -- records -------------------------------------------------------------------


def test_request_ids_are_unique():
    a = InvocationRequest(function="f", tenant="t")
    b = InvocationRequest(function="f", tenant="t")
    assert a.request_id != b.request_id
    assert a.key == "t/f"


def test_phases_totals_and_el_fraction():
    phases = Phases(extract=1.0, transform=2.0, load=1.0)
    assert phases.total == 4.0
    assert phases.el_fraction == pytest.approx(0.5)
    assert Phases().el_fraction == 0.0


def test_record_wasted_memory():
    record = InvocationRecord(
        request=InvocationRequest(function="f", tenant="t"),
        booked_memory_mb=512.0,
        peak_memory_mb=100.0,
    )
    assert record.wasted_memory_mb == 412.0
    record.peak_memory_mb = 700.0
    assert record.wasted_memory_mb == 0.0  # never negative


def test_record_durations():
    record = InvocationRecord(
        request=InvocationRequest(function="f", tenant="t"),
        submitted_at=1.0,
        started_at=1.5,
        finished_at=3.0,
    )
    assert record.duration == pytest.approx(2.0)
    assert record.execution_time == pytest.approx(1.5)
