"""A speed reference for the host, interleaved with the measured phase.

The boxes this benchmark runs on are shared: the same cell takes 2.0 s
in one minute and 3.4 s in the next, with the CPU time moving in step,
and the slow part of that drift survives any median over the repeats of
one run.  So every untraced cell also runs a fixed piece of work of the
benchmark's own — a miniature generator-and-heap event loop, the same
kind of interpreter work the simulator does — in small chunks spread
evenly over the measured phase, and reports its wall time scaled by how
fast that reference ran::

    wall_s = raw_wall_s * (chunks * REFERENCE_CHUNK_S) / calibration_s

Measured on the dev box (40 back-to-back repeats of one cell) this
takes the run-to-run coefficient of variation from 0.135 to 0.056 on
``functions_read`` and from 0.109 to 0.034 on ``tenants_pressure``; the
regression slope of log wall on log calibration time is 0.9-1.2, i.e.
the two slow down together.  Over ten runs of the command with ten
seeds, the quartile distance of ``wall_s`` fell from 0.22-0.30 of the
median to 0.03-0.13.  Set-up has no event loop to interleave with, so
it is scaled by two bursts of chunks, one before the build and one
after.  The reference touches nothing under ``src/``, so a change to
the program cannot move it.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Generator, List, Tuple

#: Chunks per measured phase, evenly spaced in simulated time.
SLICES = 200
#: Chunks in each of the two bursts around set-up.
SETUP_CHUNKS = 20
#: Events one chunk processes (about 2.5 ms).
CHUNK_EVENTS = 2000
#: What one chunk takes at the reference speed: the dev box when quiet.
#: ``wall_s`` is in seconds *at this speed*, so the constant only fixes
#: the unit; comparisons between two commits do not depend on it.
REFERENCE_CHUNK_S = 0.0025

_PROCESSES = 512
_OBJECTS = 4096


class _Thing:
    __slots__ = ("count", "tags", "items")

    def __init__(self, index: int):
        self.count = float(index)
        self.tags = {"k": index}
        self.items = [index]


class Calibration:
    """The reference event loop; :meth:`chunk` advances it and is timed."""

    def __init__(self) -> None:
        things = [_Thing(i) for i in range(_OBJECTS)]

        def process(start: int) -> Generator[float, float, None]:
            step = start
            while True:
                thing = things[(step * 2654435761) % _OBJECTS]
                thing.count += 1.0
                thing.tags["k"] = step
                thing.items[0] = step
                step += 7
                yield 0.5 + (step & 7)

        self._queue: List[Tuple[float, int, Generator]] = []
        for index in range(_PROCESSES):
            generator = process(index)
            next(generator)
            heapq.heappush(self._queue, (0.0, index, generator))
        self._sequence = _PROCESSES
        self.seconds = 0.0
        self.chunks = 0

    def chunk(self) -> None:
        queue, sequence = self._queue, self._sequence
        started = perf_counter()
        for _ in range(CHUNK_EVENTS):
            now, _order, generator = heapq.heappop(queue)
            delay = generator.send(now)
            sequence += 1
            heapq.heappush(queue, (now + delay, sequence, generator))
        self.seconds += perf_counter() - started
        self.chunks += 1
        self._sequence = sequence

    def ticker(self, span_s: float, slices: int = SLICES) -> Generator:
        """A simulation process: one chunk every ``span_s / slices``
        simulated seconds.  It touches no simulated state."""
        for _ in range(slices):
            yield span_s / slices
            self.chunk()

    def burst(self, chunks: int = SETUP_CHUNKS) -> None:
        for _ in range(chunks):
            self.chunk()

    def scale(self) -> float:
        """Reference seconds per measured second while the chunks ran."""
        return self.chunks * REFERENCE_CHUNK_S / self.seconds
