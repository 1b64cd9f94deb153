"""Footprints and durations are Python floats, never numpy scalars.

A numpy scalar returned by one model (``np.ceil`` of a Python float is
an ``np.float64``) survives every later footprint operation into
``InvocationRecord.peak_memory_mb`` and costs numpy's scalar arithmetic
on the invocation path.  Its ``repr`` also differs between numpy 1.x
and 2.x.  The checks are ``type(v) is float``: ``np.float64`` is a
subclass of ``float`` and would pass ``isinstance``.
"""

import numpy as np
import pytest

from repro.bench.envs import build_owk_swift_env
from repro.faas.records import InvocationRequest
from repro.sim.latency import KB
from repro.workloads.functions import ALL_FUNCTIONS
from repro.workloads.media import MediaCorpus
from repro.workloads.pipelines import ALL_PIPELINES

STAGES = {
    stage.name: stage
    for app in ALL_PIPELINES.values()
    for stage in app.stage_functions
}


def _arg_sets(model, n=40):
    """The defaults plus ``n`` drawn argument sets, which reach every
    value of the small categorical arguments."""
    rng = np.random.default_rng(5)
    return [{}] + [model.sample_args(rng) for _ in range(n)]


@pytest.mark.parametrize("name", sorted(ALL_FUNCTIONS))
def test_function_models_return_floats(name):
    model = ALL_FUNCTIONS[name]
    corpus = MediaCorpus(np.random.default_rng(3))
    for args in _arg_sets(model):
        media = corpus.generate(model.input_kind)
        footprint = model.footprint_mb(media, args)
        noisy = model.footprint_mb(media, args, np.random.default_rng(1))
        duration = model.transform_time(media, args)
        assert type(footprint) is float, (args, type(footprint))
        assert type(noisy) is float, (args, type(noisy))
        assert type(duration) is float, (args, type(duration))


@pytest.mark.parametrize("name", sorted(STAGES))
def test_pipeline_stages_return_floats(name):
    stage = STAGES[name]
    corpus = MediaCorpus(np.random.default_rng(3))
    for n_inputs in (1, 3):  # fan-in stages read several payloads
        payloads = [corpus.generate(stage.input_kind) for _ in range(n_inputs)]
        footprint = stage.footprint_mb(payloads, {})
        noisy = stage.footprint_mb(payloads, {}, np.random.default_rng(1))
        duration = stage.duration_s(payloads, {})
        assert type(footprint) is float, type(footprint)
        assert type(noisy) is float, type(noisy)
        assert type(duration) is float, type(duration)


@pytest.mark.parametrize("name", ["wand_blur", "wand_denoise", "wand_edge"])
def test_a_warm_invocation_records_floats(name):
    env = build_owk_swift_env(seed=0)
    kernel, store, platform = env.kernel, env.store, env.platform
    model = ALL_FUNCTIONS[name]
    platform.register_function(model.spec(tenant="t0", booked_mb=2048))
    media = MediaCorpus(np.random.default_rng(0)).image(64 * KB)
    kernel.run_until(kernel.process(store.put("inputs", "in", media, media.size)))
    args = model.sample_args(np.random.default_rng(0))
    records = []
    for _ in range(2):
        request = InvocationRequest(
            function=name, tenant="t0", args=args, input_ref="inputs/in"
        )
        records.append(kernel.run_until(kernel.process(platform.invoke(request))))
    cold, warm = records
    assert cold.cold_start and not warm.cold_start and warm.status == "ok"
    for record in records:
        assert type(record.peak_memory_mb) is float
        assert type(record.memory_limit_mb) is float
