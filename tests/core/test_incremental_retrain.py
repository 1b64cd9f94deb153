"""Incremental retraining: no-op refits are skipped on an unchanged
sample-set version, a refit after appends equals a cold fit, and the
two models of one retrain share one feature table.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import OFCConfig
from repro.core.trainer import FunctionModels, ModelTrainer, TrainingSample
from repro.ml.dataset import Dataset
from repro.ml.tree import J48Classifier


def _sample(i: int, weight: float = 1.0) -> TrainingSample:
    return TrainingSample(
        features={"in_size": float(i * 1024), "arg": "x" if i % 2 else "y"},
        memory_label=i % 4,
        cache_label=i % 2,
        weight=weight,
    )


def _models_with(n: int) -> FunctionModels:
    models = FunctionModels("fn")
    for i in range(n):
        models.add_sample(_sample(i))
    return models


def test_version_bumps_on_every_append():
    models = _models_with(5)
    assert models.samples_version == 5
    assert models.fitted_version == -1


def test_retrain_skips_when_samples_unchanged():
    trainer = ModelTrainer(OFCConfig())
    models = _models_with(12)
    trainer.retrain(models)
    assert models.retrains == 1
    assert models.fitted_version == models.samples_version
    fitted = models.memory_model
    # Nothing appended since the fit: the refit is skipped and the
    # model object is untouched.
    trainer.retrain(models)
    trainer.retrain(models)
    assert models.retrains == 1
    assert models.retrains_skipped == 2
    assert models.memory_model is fitted
    # A new sample invalidates the fingerprint.
    models.add_sample(_sample(99))
    trainer.retrain(models)
    assert models.retrains == 2
    assert models.memory_model is not fitted


def test_force_retrain_overrides_skip():
    trainer = ModelTrainer(OFCConfig())
    models = _models_with(12)
    trainer.retrain(models)
    before = models.memory_model
    trainer.retrain(models, force=True)
    assert models.retrains == 2
    assert models.memory_model is not before
    assert models.retrains_skipped == 0


def test_retrained_models_identical_with_and_without_memoization():
    """Warm equals cold: refitting after seven appended samples gives
    the trees a cold trainer fed all 37 at once builds."""
    config = OFCConfig()
    warm = ModelTrainer(config)
    models = _models_with(30)
    warm.retrain(models)
    for i in range(30, 37):
        models.add_sample(_sample(i))
    warm.retrain(models)

    cold_models = _models_with(37)
    cold = ModelTrainer(config)
    cold.retrain(cold_models)

    rows = [s.features for s in models.samples]
    assert list(models.memory_model.predict(rows)) == list(
        cold_models.memory_model.predict(rows)
    )
    assert list(models.benefit_model.predict(rows)) == list(
        cold_models.benefit_model.predict(rows)
    )
    assert models.memory_model.n_nodes == cold_models.memory_model.n_nodes


def test_relabel_shares_the_feature_table_and_nothing_else():
    """Memory and benefit models fitted from one table under two label
    vectors are the models two independently built datasets give."""
    rng = np.random.default_rng(1)
    rows, memory_labels, cache_labels, weights = [], [], [], []
    for _ in range(80):
        a = float(rng.integers(0, 10))  # heavy ties
        b = float(rng.normal())
        rows.append({"a": a, "b": b, "c": "x" if rng.random() < 0.5 else "y"})
        memory_labels.append(int(a // 3 + (b > 0.5)))
        cache_labels.append(int(a + 4 * b > 5))
        weights.append(3.0 if rng.random() < 0.3 else 1.0)

    memory = Dataset(rows, memory_labels, weights=weights)
    benefit = memory.relabel(cache_labels)
    shared = (J48Classifier().fit(memory), J48Classifier().fit(benefit))
    apart = (
        J48Classifier().fit(Dataset(rows, memory_labels, weights=weights)),
        J48Classifier().fit(Dataset(rows, cache_labels)),
    )
    probe = rows + [{"a": 4.5}, {"b": -0.1, "c": "z"}, {}]
    for got, want in zip(shared, apart):
        assert list(got.predict(probe)) == list(want.predict(probe))
        assert (got.n_nodes, got.depth) == (want.n_nodes, want.depth)

    assert list(memory.labels) == memory_labels
    assert list(benefit.labels) == cache_labels
    assert list(memory.weights) == weights
    assert list(benefit.weights) == [1.0] * len(rows)
    assert benefit.rows is memory.rows
    for name in memory.feature_names:
        assert benefit.column(name) is memory.column(name)
    for name in ("a", "b"):
        assert benefit.sort_order(name) is memory.sort_order(name)
