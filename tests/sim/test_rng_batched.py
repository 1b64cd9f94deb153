"""Invariants the RNG fast path leans on.

Two pillars: (1) vectorized draws consume the bit stream exactly like
repeated scalar draws — this is what makes :class:`BatchedStream`, a
cursor over pre-drawn standard normals, bit-identical, and a
cursor-fed :meth:`LatencyModel.sample` equal to numpy's
``lognormal(0, σ)`` for any mix of σ; (2) registry streams are stable by
name across instances and differ by name and by seed.
"""

import numpy as np
import pytest

from repro.sim.latency import (
    _JITTER_CEIL,
    _JITTER_FLOOR,
    COLD_START,
    PLATFORM_OVERHEAD,
    SWIFT_PROFILE,
    WARM_START,
)
from repro.sim.rng import BatchedStream, DEFAULT_BATCH, RngRegistry

#: numpy distributions whose vectorized draws equal sequential scalars.
DISTRIBUTIONS = [
    ("random", {}),
    ("uniform", {"low": 0.25, "high": 4.0}),
    ("exponential", {"scale": 1.7}),
    ("pareto", {"a": 1.16}),
    ("lognormal", {"mean": 0.0, "sigma": 0.05}),
    ("standard_normal", {}),
    ("normal", {"loc": 1.0, "scale": 2.0}),
    ("geometric", {"p": 0.3}),
]

#: Models of three different σ, as one shared stream serves them.
MIXED = [COLD_START, SWIFT_PROFILE.read, PLATFORM_OVERHEAD, WARM_START]


def _pair(seed=1234):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def lognormal_sample(model, generator, nbytes=0):
    """``LatencyModel.sample`` as numpy's lognormal draw defines it."""
    factor = generator.lognormal(mean=0.0, sigma=model.jitter)
    factor = min(max(factor, _JITTER_FLOOR), _JITTER_CEIL)
    return model.mean(nbytes) * factor


@pytest.mark.parametrize("kind,params", DISTRIBUTIONS)
def test_vectorized_draws_match_sequential_scalars(kind, params):
    batched_gen, scalar_gen = _pair()
    n = 257
    vector = getattr(batched_gen, kind)(size=n, **params).tolist()
    scalars = [float(getattr(scalar_gen, kind)(**params)) for _ in range(n)]
    assert vector == scalars  # bitwise, not approx
    # The two generators are stream-aligned afterwards, so batching
    # composes: the NEXT draw agrees too.
    assert batched_gen.random() == scalar_gen.random()


def test_batched_stream_facade_serves_matching_calls():
    batched_gen, scalar_gen = _pair(seed=5)
    stream = BatchedStream(batched_gen, batch=8)
    # Two refills and a partial batch.
    expected = [scalar_gen.standard_normal() for _ in range(20)]
    assert [stream.standard_normal() for _ in range(20)] == expected


def test_batched_stream_rejects_mismatched_params():
    # The cursor draws standard normals only: a call site written for
    # another distribution fails instead of desynchronizing the stream.
    stream = BatchedStream(np.random.default_rng(0))
    stream.standard_normal()  # warms the buffer
    with pytest.raises(AttributeError):
        stream.lognormal(mean=0.0, sigma=0.05)
    with pytest.raises(AttributeError):
        stream.uniform(0.0, 1.0)
    with pytest.raises(ValueError, match="batch"):
        BatchedStream(np.random.default_rng(0), batch=0)


def test_latency_model_accepts_batched_stream():
    scalar_gen = np.random.default_rng(9)
    reference_gen = np.random.default_rng(9)
    batched = BatchedStream(np.random.default_rng(9), batch=16)
    sequence = [(MIXED[i % 7 % 4], (i * 7919) % (4 << 20)) for i in range(300)]
    scalar = [model.sample(scalar_gen, nbytes) for model, nbytes in sequence]
    served = [model.sample(batched, nbytes) for model, nbytes in sequence]
    reference = [
        lognormal_sample(model, reference_gen, nbytes) for model, nbytes in sequence
    ]
    assert served == scalar == reference


# -- registry invariants ----------------------------------------------------


def draws(stream, n=8):
    return [stream.standard_normal() for _ in range(n)]


def test_stream_names_are_stable_across_registry_instances():
    draws_a = draws(RngRegistry(seed=42).batched_stream("cache"))
    draws_b = draws(RngRegistry(seed=42).batched_stream("cache"))
    assert draws_a == draws_b


def test_streams_differ_by_name_and_seed():
    reg = RngRegistry(seed=42)
    assert draws(reg.batched_stream("cache")) != draws(
        reg.batched_stream("platform")
    )
    assert draws(RngRegistry(seed=1).batched_stream("cache")) != draws(
        RngRegistry(seed=2).batched_stream("cache")
    )


def test_batched_stream_matches_raw_stream_sequence():
    raw = RngRegistry(seed=7)._seeded("platform")
    batched = RngRegistry(seed=7).batched_stream("platform")
    models = [MIXED[i % 3] for i in range(DEFAULT_BATCH + 30)]
    expected = [lognormal_sample(model, raw) for model in models]
    assert [model.sample(batched) for model in models] == expected


def test_default_batch_is_sane():
    assert DEFAULT_BATCH >= 64
