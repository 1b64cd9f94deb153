"""Unit tests for the unit-grant FIFO Resource."""

import pytest

from repro.sim import Kernel, Resource, SimulationError


def test_resource_grants_up_to_capacity():
    kernel = Kernel()
    res = Resource(kernel, capacity=2)
    grants = []

    def worker(name, hold):
        yield res.acquire()
        grants.append((name, kernel.now))
        yield kernel.timeout(hold)
        res.release()

    kernel.process(worker("a", 5.0))
    kernel.process(worker("b", 5.0))
    kernel.process(worker("c", 5.0))
    kernel.run(until=1.0)
    assert grants == [("a", 0.0), ("b", 0.0)]  # c blocks at capacity
    assert (res.in_use, res.available) == (2, 0)
    kernel.run()
    assert grants == [("a", 0.0), ("b", 0.0), ("c", 5.0)]
    assert (res.in_use, res.available) == (0, 2)


def test_resource_fifo_order():
    kernel = Kernel()
    res = Resource(kernel, capacity=1)
    order = []

    def worker(name):
        yield res.acquire()
        order.append(name)
        yield kernel.timeout(1.0)
        res.release()

    for name in "abcd":
        kernel.process(worker(name))
    kernel.run()
    assert order == list("abcd")


def test_resource_over_release_raises():
    kernel = Kernel()
    res = Resource(kernel, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


@pytest.mark.parametrize("capacity", [0, -1])
def test_resource_non_positive_capacity_raises(capacity):
    with pytest.raises(SimulationError):
        Resource(Kernel(), capacity=capacity)
