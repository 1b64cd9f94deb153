"""The counting resource of the simulation: unit grants, FIFO queue."""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.sim.kernel import Event, Kernel, SimulationError


class Resource:
    """``capacity`` units, granted one at a time in arrival order.

    A process takes a unit with ``yield resource.acquire()`` and must
    hand it back with ``resource.release()``.  Models the concurrency
    limit of the storage service (:mod:`repro.storage.object_store`).
    """

    def __init__(self, kernel: Kernel, capacity: int):
        if capacity <= 0:
            raise SimulationError("resource capacity must be positive")
        self.kernel = kernel
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def acquire(self) -> Event:
        event = Event(self.kernel)
        if self.in_use < self.capacity:
            self.in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        if self.in_use == 0:
            raise SimulationError("release with nothing in use")
        if self._waiters:
            # The unit goes straight to the oldest waiter.
            self._waiters.popleft().succeed()
        else:
            self.in_use -= 1
