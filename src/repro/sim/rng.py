"""Named deterministic random streams.

Every stochastic component of the simulation draws from its own named
stream so that (a) runs are reproducible for a given seed and (b) adding
randomness to one component never perturbs another component's draws.

The latency streams draw nothing but standard normals: every
:class:`~repro.sim.latency.LatencyModel` jitter is ``lognormal(0, σ)``,
which numpy computes as ``exp(0 + σ·z)`` from ONE standard normal ``z``
whatever σ is, and ``LatencyModel.sample`` does that arithmetic itself.
So a stream shared by models of different σ (the store's profile, the
platform's cold/warm starts) is served by a :class:`BatchedStream`, a
cursor over pre-drawn standard normals: numpy's vectorized
``standard_normal(n)`` consumes the bit stream exactly like ``n``
scalar draws (``tests/sim/test_rng_batched.py``), so batching is
bit-identical — provided nothing else draws from the wrapped generator,
which is why :class:`RngRegistry` hands out batched streams only.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

#: Pre-draw granularity.  Large enough to amortize the vectorized call,
#: small enough that an unused tail costs nothing noticeable.
DEFAULT_BATCH = 1024


class BatchedStream:
    """Cursor over pre-drawn standard normals of one generator.

    ``standard_normal()`` is its only draw, under numpy's name, so a
    :class:`~repro.sim.latency.LatencyModel` draws from a cursor and from
    a raw ``numpy.random.Generator`` with the same line.
    """

    __slots__ = ("generator", "batch", "_buf", "_pos")

    def __init__(self, generator: np.random.Generator, batch: int = DEFAULT_BATCH):
        if batch < 1:
            raise ValueError("batch must be >= 1")
        self.generator = generator
        self.batch = int(batch)
        self._buf: List[float] = []
        self._pos = self.batch

    def standard_normal(self) -> float:
        """The next standard normal of the wrapped generator."""
        pos = self._pos
        if pos == self.batch:
            # .tolist() converts to Python floats once per batch: the
            # values are bitwise what sequential scalar draws return.
            self._buf = self.generator.standard_normal(self.batch).tolist()
            pos = 0
        self._pos = pos + 1
        return self._buf[pos]


class RngRegistry:
    """Hands out independent :class:`BatchedStream` cursors by name."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._batched: Dict[str, BatchedStream] = {}

    def _seeded(self, name: str) -> np.random.Generator:
        """The generator behind ``name``: its seed is derived from
        (registry seed, name), so the same name always yields the same
        sequence for a given seed."""
        seed_seq = np.random.SeedSequence(
            entropy=self.seed,
            spawn_key=tuple(name.encode("utf-8")),
        )
        return np.random.default_rng(seed_seq)

    def batched_stream(self, name: str) -> BatchedStream:
        """The :class:`BatchedStream` over the named stream, created on
        first use."""
        if name not in self._batched:
            self._batched[name] = BatchedStream(self._seeded(name))
        return self._batched[name]
