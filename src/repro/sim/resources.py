"""The counting resource of the simulation: unit grants, FIFO queue."""

from __future__ import annotations

from collections import deque
from typing import Deque, Union

from repro.sim.kernel import Event, Kernel, SimulationError


class Resource:
    """``capacity`` units, granted one at a time in arrival order.

    A process takes a unit with ``yield resource.acquire()`` and must
    hand it back with ``resource.release()``.  Models the concurrency
    limit of the storage service (:mod:`repro.storage.object_store`).

    ``acquire()`` returns the bare delay ``0.0`` when a unit is free: a
    process yielding it is re-queued on the kernel's FIFO at the slot a
    succeeded :class:`Event` would have taken, and resumes with ``None``
    as it would from that event, so a grant that does not wait costs no
    event.  Only an acquirer that has to queue gets an :class:`Event`,
    which :meth:`release` succeeds.  Yield the result at once: the
    equivalence holds because nothing is scheduled between the call and
    the ``yield`` (``tests/sim/test_resource_oracle.py``).
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

    def acquire(self) -> Union[float, Event]:
        if self.in_use < self.capacity:
            self.in_use += 1
            return 0.0
        event = Event(self.kernel)
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
