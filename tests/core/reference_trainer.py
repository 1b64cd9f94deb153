"""The online-training oracle: both trees at every retrain point.

:func:`reference_on_completion` is the straightforward spelling of
``ModelTrainer.on_completion``: it builds a ``TrainingSample`` for every
completion, keeps it if curation does, and calls ``ModelTrainer.retrain``
(the memory tree and the benefit tree) at every retrain point.  The
production listener fits the memory tree only where the maturation
check or the predictor reads it, and builds no sample for a completion
curation drops; ``test_online_training_oracle.py`` and
``tests/bench/test_pretrain_oracle.py`` hold it to this loop.
"""

from __future__ import annotations

from repro.core.trainer import (
    cache_benefit_label,
    EXTREME_OVER_INTERVALS,
    ModelTrainer,
    RETRAIN_EVERY,
    TrainingSample,
    UNDERPREDICTION_WEIGHT,
)
from repro.faas.records import InvocationRecord


def reference_on_completion(trainer: ModelTrainer, record: InvocationRecord) -> None:
    """Learn from one invocation, fitting both trees at every retrain point."""
    if record.status != "ok" or not record.features:
        return
    models = trainer.models_for(record.request.key)
    models.invocations_seen += 1
    true_label = trainer.intervals.label(record.peak_memory_mb)
    sample = TrainingSample(
        # The record's own row, as the production listener keeps it: an
        # OFC row is interned, so a copy would pickle differently.
        features=record.features,
        memory_label=true_label,
        cache_label=cache_benefit_label(
            record.bytes_in,
            record.bytes_out,
            record.phases.transform,
        ),
    )
    retrain_now = False
    if models.mature and record.predicted_interval is not None:
        predicted = record.predicted_interval
        if predicted >= true_label:
            trainer.good_predictions += 1
        else:
            trainer.bad_predictions += 1
        under = predicted < true_label
        extreme_over = predicted - true_label > EXTREME_OVER_INTERVALS
        if under:
            sample.weight = UNDERPREDICTION_WEIGHT
            models.add_sample(sample)
            if record.oom_kills > 0:
                retrain_now = True
        elif extreme_over:
            models.add_sample(sample)
    else:
        models.add_sample(sample)
    if retrain_now or models.invocations_seen % RETRAIN_EVERY == 0:
        trainer.retrain(models)
