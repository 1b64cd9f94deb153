"""Focused tests: OOM-driven fast retraining and rclib fallbacks."""

from repro.core.trainer import ModelTrainer
from tests.core.conftest import deploy, invoke, seed_images
from tests.core.test_trainer_predictor import feed, make_record


def test_oom_correction_triggers_immediate_retrain():
    trainer = ModelTrainer()
    feed(trainer, 100)
    models = trainer.models_for("t/f")
    assert models.mature
    retrains_before = models.retrains
    # An OOM-killed-then-retried invocation whose prediction was too low.
    record = make_record(peak_mb=400.0, features={"x": 40.0})
    record.predicted_interval = trainer.intervals.label(400.0) - 4
    record.oom_kills = 1
    trainer.on_completion(record)
    assert models.retrains == retrains_before + 1  # §5.3.1: corrected quickly


def test_underprediction_without_oom_waits_for_periodic_retrain():
    trainer = ModelTrainer()
    feed(trainer, 100)
    models = trainer.models_for("t/f")
    retrains_before = models.retrains
    record = make_record(peak_mb=400.0, features={"x": 40.0})
    record.predicted_interval = trainer.intervals.label(400.0) - 2
    record.oom_kills = 0
    trainer.on_completion(record)  # invocation 101: not a retrain point
    assert models.retrains == retrains_before


def test_write_back_fallback_when_cache_is_full(ofc):
    """A full cache turns write-back into a synchronous persist; the
    invocation still succeeds and the RSDS holds the payload."""
    deploy(ofc)
    refs = seed_images(ofc, n=1)
    # Choke every cache server so no put can be admitted.
    for node in ("w0", "w1", "w2", "w3"):
        agent = ofc.agents[node]
        ofc.kernel.run_until(ofc.kernel.process(agent._shrink_to(0)))
        agent.invoker.cache_reserved_mb = 0.0
        agent.invoker.listeners.remove(agent._on_sandbox_event)
        agent.invoker.ensure_capacity = None
    record = invoke(ofc, ref=refs[0])
    assert record.status == "ok"
    assert ofc.rclib_stats.write_back_fallbacks >= 1
    out_bucket, out_name = record.output_refs[0].split("/", 1)
    meta = ofc.store.peek_meta(out_bucket, out_name)
    assert not meta.is_shadow  # payload persisted synchronously


def test_cache_fill_failure_is_silent(ofc):
    """Read-miss population failing for lack of room never surfaces."""
    deploy(ofc)
    refs = seed_images(ofc, n=1)
    for node in ("w0", "w1", "w2", "w3"):
        agent = ofc.agents[node]
        ofc.kernel.run_until(ofc.kernel.process(agent._shrink_to(0)))
        agent.invoker.listeners.remove(agent._on_sandbox_event)
        agent.invoker.ensure_capacity = None
        agent.invoker.cache_reserved_mb = 0.0
    record = invoke(ofc, ref=refs[0])
    assert record.status == "ok"
    assert not ofc.cluster.contains(refs[0])  # fill failed quietly
