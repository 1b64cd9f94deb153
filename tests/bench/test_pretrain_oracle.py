"""Offline learning fits only the trees it reads, and leaves exactly the
state the per-record loop left.

The oracle is the loop pretraining used to run: one synthetic
``InvocationRecord`` per sample through the online reference loop
(``tests.core.reference_trainer.reference_on_completion``, which fits
both trees at every retrain point), then a trailing ``retrain()``.
``ModelTrainer.ingest`` fits the memory tree only where the maturation
check reads it, and both trees once at the end; the
trees, the curated set, the maturity verdict, the versions and the next
request id must come out identical, and only the fit count may drop.

Run this after touching ``core/trainer.py`` or ``ml/tree.py``; the same
oracle on the maturation artifact's fresh-input streams (late maturers,
and one that never matures) is in
``benchmarks/test_maturation_quickness.py``.
"""

from __future__ import annotations

import pickle
from itertools import islice
from types import SimpleNamespace

import numpy as np
import pytest

from repro.bench import model_cache
from repro.bench.datasets import feature_row, synthetic_sample
from repro.bench.envs import pretrain_function
from repro.core.trainer import FunctionModels, ModelTrainer
from repro.faas import reset_id_counters
from repro.faas.records import InvocationRecord, InvocationRequest, Phases
from repro.workloads.functions import ALL_FUNCTIONS, EVALUATION_FUNCTIONS
from repro.workloads.media import MediaCorpus
from tests.core.reference_trainer import reference_on_completion

#: Before the first check (100), just past it (a trailing check off the
#: retrain points), pretraining's default, and the maturation budget.
N_SAMPLES = (30, 110, 150, 500)
TENANT = "t0"
SEED = 42


@pytest.fixture(autouse=True)
def _cold_memo():
    model_cache.clear()
    yield
    model_cache.clear()


def _record(model, media, args, rng) -> InvocationRecord:
    """The telemetry the per-record loop synthesised for one sample."""
    record = InvocationRecord(
        request=InvocationRequest(function=model.name, tenant=TENANT, args=args),
        status="ok",
        peak_memory_mb=model.footprint_mb(media, args, rng),
        features=feature_row(media, args),
    )
    record.phases = Phases(transform=model.transform_time(media, args))
    record.bytes_in = media.size
    record.bytes_out = model.output_size(media, args)
    return record


def per_record_loop(model, draws):
    """n -> (models, next request id) the per-record loop leaves after
    ``n`` samples, for every n in ``N_SAMPLES``.

    One stream serves every n: the records of a shorter run are a prefix
    of a longer one's, so the state after n records is copied and the
    trailing retrain runs on the copy.
    """
    reset_id_counters()
    trainer = ModelTrainer()
    models = trainer.models_for(f"{TENANT}/{model.name}")
    oracle = {}
    for n, (media, args, rng) in enumerate(islice(draws, max(N_SAMPLES)), 1):
        record = _record(model, media, args, rng)
        reference_on_completion(trainer, record)
        if n in N_SAMPLES:
            snapshot = pickle.loads(pickle.dumps(models))
            trainer.retrain(snapshot)
            oracle[n] = (snapshot, record.request.request_id + 1)
    return oracle


def ingest(model, draws, n: int) -> FunctionModels:
    """What ``ModelTrainer.ingest`` makes of the first ``n`` draws."""
    trainer = ModelTrainer()
    samples = (
        synthetic_sample(trainer, model, media, args, rng)
        for media, args, rng in islice(draws, n)
    )
    return trainer.ingest(f"{TENANT}/{model.name}", samples)


def assert_same_state(got: FunctionModels, want: FunctionModels) -> None:
    for tree in ("memory_model", "benefit_model"):
        assert pickle.dumps(getattr(got, tree)) == pickle.dumps(
            getattr(want, tree)
        ), tree
    assert pickle.dumps(got.samples) == pickle.dumps(want.samples)
    for name in (
        "mature",
        "matured_after",
        "invocations_seen",
        "samples_version",
        "fitted_version",
    ):
        assert getattr(got, name) == getattr(want, name), name
    assert got.retrains <= want.retrains


def fresh_input_draws(model, seed: int):
    """``run_maturation``'s stream: a fresh input per invocation."""
    rng = np.random.default_rng(seed)
    corpus = MediaCorpus(np.random.default_rng(seed + 1))
    while True:
        media = corpus.generate(model.input_kind)
        yield media, model.sample_args(rng), rng


def _descriptor_draws(model, descriptors, seed: int):
    """``pretrain_function``'s stream: inputs drawn from a fixed set."""
    rng = np.random.default_rng(seed)
    while True:
        media = descriptors[int(rng.integers(0, len(descriptors)))]
        yield media, model.sample_args(rng), rng


@pytest.mark.parametrize(
    "index,name", list(enumerate(EVALUATION_FUNCTIONS)), ids=EVALUATION_FUNCTIONS
)
def test_pretrain_function_matches_the_per_record_loop(index, name):
    """Every function through the deployment path, on a memo miss and
    on a hit: the same draws in the same order, and the request ids the
    loop's records would have drawn are skipped.  At these seeds most
    models mature at the first check; ``img_format_convert`` fails it
    and matures at 110 only if the trailing check runs."""
    model = ALL_FUNCTIONS[name]
    descriptors = MediaCorpus(np.random.default_rng([0, index])).batch(
        model.input_kind, 8
    )
    oracle = per_record_loop(model, _descriptor_draws(model, descriptors, SEED))
    for n in N_SAMPLES:
        want, next_id = oracle[n]
        for memo in ("miss", "hit"):
            reset_id_counters()
            deployment = SimpleNamespace(trainer=ModelTrainer())
            pretrain_function(deployment, model, descriptors, n_samples=n, seed=SEED)
            got = deployment.trainer.models_for(f"{TENANT}/{model.name}")
            assert_same_state(got, want)
            assert InvocationRequest("f", TENANT).request_id == next_id, memo
    if name == "img_format_convert":  # the trailing check decides
        assert oracle[110][0].matured_after == 110
