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
bit-identical — provided nothing else draws from the wrapped generator.
:class:`RngRegistry` enforces that a name is handed out either raw or
batched, never both.
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
    """Hands out independent ``numpy.random.Generator`` streams by name."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams: Dict[str, np.random.Generator] = {}
        self._batched: Dict[str, BatchedStream] = {}

    def _seeded(self, name: str) -> np.random.Generator:
        seed_seq = np.random.SeedSequence(
            entropy=self.seed,
            spawn_key=tuple(name.encode("utf-8")),
        )
        return np.random.default_rng(seed_seq)

    def stream(self, name: str) -> np.random.Generator:
        """Return the stream for ``name``, creating it on first use.

        The stream's seed is derived from (registry seed, name) so the
        same name always yields the same sequence for a given seed.
        """
        if name in self._batched:
            raise RuntimeError(
                f"stream {name!r} is served batched; drawing from the "
                "raw generator would desynchronize the prefetched cursor"
            )
        if name not in self._streams:
            self._streams[name] = self._seeded(name)
        return self._streams[name]

    def batched_stream(self, name: str) -> BatchedStream:
        """The :class:`BatchedStream` over the named stream.

        The registry refuses to also hand out the raw generator for
        ``name`` (and vice versa): interleaved direct draws would break
        the cursor's bit-identity.
        """
        if name in self._streams:
            raise RuntimeError(
                f"stream {name!r} was already handed out raw; batching it "
                "now would desynchronize earlier scalar draws"
            )
        if name not in self._batched:
            self._batched[name] = BatchedStream(self._seeded(name))
        return self._batched[name]

    def fork(self, salt: int) -> "RngRegistry":
        """A registry whose streams are all independent of this one's."""
        return RngRegistry(seed=(self.seed * 1_000_003 + salt) & 0x7FFFFFFF)
