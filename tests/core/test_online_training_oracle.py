"""Online training fits only the trees something reads, and those trees
are the ones the reference loop fits.

The reference (:func:`tests.core.reference_trainer.reference_on_completion`)
builds a sample for every completion and fits both trees at every
retrain point.  ``ModelTrainer.on_completion`` fits the benefit tree
alone before the first maturation check and builds no sample for a
completion curation drops.  One completion stream goes through both:
immature records up to the first check, then mature records predicted
exactly, a little over, under (with and without an OOM kill) and
extremely over, plus unpredicted, failed and featureless ones.  After
every record the benefit trees, every memory tree production holds
(which includes every one that is read), the curated set, the versions,
the maturity verdict and the prediction counters are pickle-identical.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.trainer import (
    MIN_HISTORY_FOR_MATURITY,
    ModelTrainer,
    RETRAIN_EVERY,
    TrainingSample,
    UNDERPREDICTION_WEIGHT,
)
from repro.faas.records import InvocationRecord, InvocationRequest, Phases
from tests.core.reference_trainer import reference_on_completion

LEARNABLE = "t/learnable"  # matures at the first check
NOISY = "t/noisy"  # memory unrelated to features: never matures
KINDS = (
    "exact", "over", "under", "oom", "extreme", "unpredicted", "failed",
    "featureless",
)
WEIGHTS = (0.35, 0.2, 0.15, 0.05, 0.1, 0.07, 0.05, 0.03)


def _record(key, peak_mb, features, rng) -> InvocationRecord:
    tenant, function = key.split("/")
    record = InvocationRecord(
        request=InvocationRequest(function=function, tenant=tenant),
        status="ok",
        peak_memory_mb=peak_mb,
        features=features,
    )
    record.phases = Phases(transform=float(rng.uniform(0.01, 0.5)))
    record.bytes_in = int(features.get("size", 0) or rng.integers(1, 10**6))
    record.bytes_out = int(rng.integers(1_000, 500_000))
    return record


def _stream(trainer: ModelTrainer, seed: int):
    """Completions for both functions; each one is shaped by the
    production trainer's state when it is drawn, the way the predictor
    shapes a record (a prediction only once the memory model is mature)."""
    rng = np.random.default_rng(seed)
    intervals = trainer.intervals
    for i in range(420):
        if i % 3 == 2:
            peak = float(rng.uniform(64, 1500))
            yield _record(NOISY, peak, {"x": float(rng.random())}, rng)
            continue
        size = int(rng.integers(1, 40)) * 32_000
        mode = "ab"[int(rng.integers(0, 2))]
        peak = 96.0 + size / 8_000 + (24.0 if mode == "b" else 0.0)
        record = _record(LEARNABLE, peak, {"size": size, "mode": mode}, rng)
        if trainer.models_for(LEARNABLE).mature:
            # A stretch of exact predictions leaves a retrain point with
            # nothing new to fit (the skipped refit).
            kind = "exact" if 300 <= i < 390 else rng.choice(KINDS, p=WEIGHTS)
            true = intervals.label(peak)
            record.predicted_interval = {
                "exact": true,
                "over": true + int(rng.integers(1, 7)),
                "under": true - int(rng.integers(1, 3)),
                "oom": true - 2,
                "extreme": true + int(rng.integers(7, 10)),
            }.get(kind)
            if kind == "oom":
                record.oom_kills = 1
            elif kind == "failed":
                record.status = "failed"
            elif kind == "featureless":
                record.features = {}
        yield record


def _pretraining(n: int):
    rng = np.random.default_rng(99)
    for _ in range(n):
        size = int(rng.integers(1, 40)) * 32_000
        yield TrainingSample(
            features={"size": size, "mode": "ab"[int(rng.integers(0, 2))]},
            memory_label=int(size // 128_000) + 6,
            cache_label=int(rng.integers(0, 2)),
        )


def _same(got, want) -> bool:
    return pickle.dumps(got) == pickle.dumps(want)


def assert_reads_agree(trainer: ModelTrainer, reference: ModelTrainer) -> None:
    assert trainer.good_predictions == reference.good_predictions
    assert trainer.bad_predictions == reference.bad_predictions
    for key in (LEARNABLE, NOISY):
        got, want = trainer.models_for(key), reference.models_for(key)
        assert _same(got.benefit_model, want.benefit_model), key
        if got.mature:
            assert got.memory_model is not None, key
        if got.memory_model is not None:
            assert _same(got.memory_model, want.memory_model), key
        assert _same(got.samples, want.samples), key
        for name in (
            "mature",
            "matured_after",
            "invocations_seen",
            "samples_version",
            "fitted_version",
        ):
            assert getattr(got, name) == getattr(want, name), (key, name)


@pytest.mark.parametrize("pretrained", [0, 30], ids=["cold", "pretrained30"])
def test_online_training_reads_the_trees_the_reference_fits(pretrained):
    """``pretrained`` samples first go through ``ingest`` on both sides;
    30 leaves a memory tree that nothing reads until the first check,
    fitted on labels a little off the online ones, so that the first
    check fails and a later one matures the model."""
    trainer, reference = ModelTrainer(), ModelTrainer()
    if pretrained:
        trainer.ingest(LEARNABLE, _pretraining(pretrained))
        reference.ingest(LEARNABLE, _pretraining(pretrained))
    for record in _stream(trainer, seed=5):
        trainer.on_completion(record)
        reference_on_completion(reference, record)
        assert_reads_agree(trainer, reference)

    learnable = reference.models_for(LEARNABLE)
    noisy = reference.models_for(NOISY)
    # The stream reached every branch it is meant to cover.
    if pretrained:
        assert learnable.matured_after > MIN_HISTORY_FOR_MATURITY
    else:
        assert learnable.matured_after == MIN_HISTORY_FOR_MATURITY
    assert not noisy.mature and noisy.invocations_seen > 100
    assert reference.good_predictions > 0 and reference.bad_predictions > 0
    assert learnable.retrains_skipped > 0
    assert any(s.weight == UNDERPREDICTION_WEIGHT for s in learnable.samples)
    # ... with fewer memory fits: none at the online retrain points
    # before the first check.
    before_first_check = (MIN_HISTORY_FOR_MATURITY - 1) // RETRAIN_EVERY
    for key, seen in ((LEARNABLE, pretrained), (NOISY, 0)):
        got, want = trainer.models_for(key), reference.models_for(key)
        skipped = before_first_check - seen // RETRAIN_EVERY
        assert got.retrains == want.retrains - skipped, key

