"""Tests for the ModelTrainer maturation and the Predictor."""

import dataclasses

import numpy as np

from repro.core import OFCConfig
from repro.core.trainer import cache_benefit_label, ModelTrainer
from repro.faas.records import InvocationRecord, InvocationRequest, Phases
from repro.sim.latency import LatencyModel
from repro.storage.latency_profiles import SWIFT_PROFILE
from tests.core.conftest import deploy, invoke, seed_images


def make_record(fn="f", peak_mb=100.0, features=None, predicted=None,
                transform_s=0.1, bytes_in=64_000, bytes_out=64_000):
    record = InvocationRecord(
        request=InvocationRequest(function=fn, tenant="t"),
        status="ok",
        peak_memory_mb=peak_mb,
        features=features or {"x": peak_mb / 10.0},
        predicted_interval=predicted,
    )
    record.phases = Phases(transform=transform_s)
    record.bytes_in = bytes_in
    record.bytes_out = bytes_out
    return record


def feed(trainer, n, fn="f", peak_fn=None):
    for i in range(n):
        peak = peak_fn(i) if peak_fn else 100.0 + (i % 5) * 16.0
        trainer.on_completion(
            make_record(fn=fn, peak_mb=peak, features={"x": peak / 10.0})
        )


def test_model_matures_on_learnable_function():
    trainer = ModelTrainer(OFCConfig())
    feed(trainer, 100)
    models = trainer.models_for("t/f")
    assert models.mature
    assert models.matured_after == 100
    assert models.memory_model is not None


def test_no_maturity_before_min_history():
    trainer = ModelTrainer(OFCConfig())
    feed(trainer, 99)
    assert not trainer.models_for("t/f").mature


def test_unpredictable_function_does_not_mature():
    rng = np.random.default_rng(0)
    trainer = ModelTrainer(OFCConfig())
    # Memory unrelated to features: pure noise over a wide range.
    for _ in range(150):
        trainer.on_completion(
            make_record(
                peak_mb=float(rng.uniform(64, 1500)),
                features={"x": float(rng.random())},
            )
        )
    assert not trainer.models_for("t/f").mature


def test_selective_retention_after_maturity():
    config = OFCConfig()
    trainer = ModelTrainer(config)
    feed(trainer, 100)
    models = trainer.models_for("t/f")
    assert models.mature
    before = len(models.samples)
    # Exact predictions are NOT added to the training set any more.
    intervals = trainer.intervals
    record = make_record(peak_mb=100.0, features={"x": 10.0})
    record.predicted_interval = intervals.label(100.0)
    trainer.on_completion(record)
    assert len(models.samples) == before
    # Underpredictions ARE added, with a higher weight.
    record = make_record(peak_mb=200.0, features={"x": 20.0})
    record.predicted_interval = intervals.label(200.0) - 3
    trainer.on_completion(record)
    assert len(models.samples) == before + 1
    assert models.samples[-1].weight == config.underprediction_weight
    # Extreme overpredictions ARE added too.
    record = make_record(peak_mb=100.0, features={"x": 10.0})
    record.predicted_interval = intervals.label(100.0) + 7
    trainer.on_completion(record)
    assert len(models.samples) == before + 2


def test_good_bad_prediction_accounting():
    trainer = ModelTrainer(OFCConfig())
    feed(trainer, 100)
    intervals = trainer.intervals
    over = make_record(peak_mb=100.0)
    over.predicted_interval = intervals.label(100.0) + 1
    trainer.on_completion(over)
    under = make_record(peak_mb=100.0)
    under.predicted_interval = intervals.label(100.0) - 1
    trainer.on_completion(under)
    assert trainer.good_predictions == 1
    assert trainer.bad_predictions == 1


def test_cache_benefit_label_depends_on_el_dominance():
    trainer = ModelTrainer(OFCConfig())
    # Tiny transform, significant transfers: E+L dominates -> 1.
    trainer.on_completion(
        make_record(transform_s=0.01, bytes_in=1_000_000, bytes_out=500_000)
    )
    # Long transform dwarfs the transfers -> 0.
    trainer.on_completion(
        make_record(transform_s=30.0, bytes_in=1_000, bytes_out=1_000)
    )
    assert [s.cache_label for s in trainer.models_for("t/f").samples] == [1, 0]
    # An invocation that took no time at all has nothing to dominate.
    free = LatencyModel(base_s=0.0)
    instant = dataclasses.replace(SWIFT_PROFILE, read=free, write=free)
    assert cache_benefit_label(0, 0, 0.0, instant, threshold=0.5) == 0


def test_failed_records_are_ignored():
    trainer = ModelTrainer(OFCConfig())
    record = make_record()
    record.status = "failed"
    trainer.on_completion(record)
    assert trainer.models_for("t/f").invocations_seen == 0


def test_maturity_report():
    trainer = ModelTrainer(OFCConfig())
    feed(trainer, 100, fn="a")
    feed(trainer, 10, fn="b")
    report = trainer.maturity_report()
    assert report["t/a"] == 100
    assert report["t/b"] is None


# -- Predictor integration ----------------------------------------------------


def test_predictor_uses_booked_until_mature(ofc):
    deploy(ofc)
    refs = seed_images(ofc, n=2)
    record = invoke(ofc, ref=refs[0])
    assert record.memory_limit_mb == 512.0
    assert record.predicted_interval is None


def test_predictor_shrinks_sandbox_after_maturity(ofc):
    """End-to-end learning: after ~100 invocations the sandbox gets the
    predicted (much smaller) size instead of the booked 512 MB."""
    deploy(ofc)
    refs = seed_images(ofc, n=4, size=64 * 1024)
    rng = np.random.default_rng(5)
    last = None
    for i in range(110):
        ref = refs[int(rng.integers(0, len(refs)))]
        last = invoke(
            ofc, ref=ref, args={"threshold": float(rng.uniform(0.5, 1.0))}
        )
        assert last.status == "ok"
    models = ofc.trainer.models_for("t0/wand_sepia")
    assert models.mature
    assert last.predicted_interval is not None
    # wand_sepia on 64 kB inputs needs ~85 MB; the prediction (plus the
    # conservative bump) should sit far below the 512 MB booking.
    assert last.memory_limit_mb <= 160.0
    assert last.memory_limit_mb >= last.peak_memory_mb


def test_no_failed_invocations_during_learning(ofc):
    deploy(ofc)
    refs = seed_images(ofc, n=4)
    rng = np.random.default_rng(9)
    for i in range(120):
        record = invoke(
            ofc,
            ref=refs[int(rng.integers(0, len(refs)))],
            args={"threshold": float(rng.uniform(0.5, 1.0))},
        )
        assert record.status == "ok"
    snap = ofc.table2_snapshot()
    assert snap["failed_invocations"] == 0
