"""ModelTrainer: per-function model lifecycle (§5.3).

The trainer listens to invocation completions, curates a small but
valuable training set per function, checks the maturation criterion,
and (re)trains two J48 models per function:

* the **memory model** — a classifier over memory intervals;
* the **cache-benefit model** — a binary classifier predicting whether
  Extract+Load would dominate the invocation without a cache (§5.2).

Training-set curation after maturity (§5.3.3): only underpredictions
and extreme overpredictions (k - k* > 6 intervals) are added, and
underprediction samples carry a higher weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.config import OFCConfig
from repro.faas.records import InvocationRecord
from repro.ml.dataset import Dataset
from repro.ml.intervals import MemoryIntervals
from repro.ml.tree import J48Classifier
from repro.storage.latency_profiles import LatencyProfile, SWIFT_PROFILE


@dataclass
class TrainingSample:
    features: Dict[str, Any]
    memory_label: int
    cache_label: int
    weight: float = 1.0


@dataclass
class FunctionModels:
    """All ML state OFC keeps for one function."""

    function_key: str
    memory_model: Optional[J48Classifier] = None
    benefit_model: Optional[J48Classifier] = None
    mature: bool = False
    #: Invocations observed when the model matured (§7.1.3).
    matured_after: Optional[int] = None
    samples: List[TrainingSample] = field(default_factory=list)
    invocations_seen: int = 0
    retrains: int = 0
    #: Retrains skipped because curation added nothing since the last
    #: fit (a J48 refit on an identical sample set is a no-op).
    retrains_skipped: int = 0
    #: Fingerprint of the curated sample set: bumped on every append.
    #: Curation is append-only, so a version match means the set is
    #: unchanged since it was last seen.
    samples_version: int = 0
    #: ``samples_version`` the current models were fitted on.
    fitted_version: int = -1

    def add_sample(self, sample: TrainingSample) -> None:
        self.samples.append(sample)
        self.samples_version += 1


def cache_benefit_label(
    bytes_in: int,
    bytes_out: int,
    transform_s: float,
    profile: LatencyProfile,
    threshold: float,
) -> int:
    """Would E+L dominate an invocation *without* a cache (§5.2)?

    Uses the RSDS latency profile and the transfer volumes, so the
    label is cache-independent even when the invocation itself was
    served from the cache.
    """
    est_extract = profile.read.mean(bytes_in)
    est_load = profile.write.mean(bytes_out)
    total = est_extract + est_load + transform_s
    if total <= 0.0:
        return 0
    return int((est_extract + est_load) / total > threshold)


class ModelTrainer:
    """Accumulates telemetry and maintains the per-function models."""

    def __init__(
        self,
        config: Optional[OFCConfig] = None,
        registry=None,
        rsds_profile: LatencyProfile = SWIFT_PROFILE,
    ):
        self.config = config or OFCConfig()
        self.registry = registry
        self.rsds_profile = rsds_profile
        self.intervals = MemoryIntervals(
            interval_mb=self.config.interval_mb,
            max_mb=self.config.max_memory_mb,
        )
        self._models: Dict[str, FunctionModels] = {}
        # Aggregate prediction quality (Table 2 lines 7-8).
        self.good_predictions = 0
        self.bad_predictions = 0

    def models_for(self, function_key: str) -> FunctionModels:
        if function_key not in self._models:
            self._models[function_key] = FunctionModels(function_key)
        return self._models[function_key]

    # -- ingestion -----------------------------------------------------------

    def on_completion(self, record: InvocationRecord) -> None:
        """Platform completion listener: learn from one invocation."""
        if record.status != "ok" or not record.features:
            return
        models = self.models_for(record.request.key)
        models.invocations_seen += 1
        true_label = self.intervals.label(record.peak_memory_mb)
        sample = TrainingSample(
            features=dict(record.features),
            memory_label=true_label,
            cache_label=cache_benefit_label(
                record.bytes_in,
                record.bytes_out,
                record.phases.transform,
                self.rsds_profile,
                self.config.cache_benefit_threshold,
            ),
        )
        retrain_now = False
        if models.mature and record.predicted_interval is not None:
            predicted = record.predicted_interval
            if predicted >= true_label:
                self.good_predictions += 1
            else:
                self.bad_predictions += 1
            under = predicted < true_label
            extreme_over = (
                predicted - true_label > self.config.extreme_over_intervals
            )
            if under:
                sample.weight = self.config.underprediction_weight
                models.add_sample(sample)
                # §5.3.1: memory exhaustion corrections happen quickly.
                if record.oom_kills > 0:
                    retrain_now = True
            elif extreme_over:
                models.add_sample(sample)
            # Exact/near predictions are not added (the set stays small).
        else:
            models.add_sample(sample)
        if retrain_now or models.invocations_seen % self.config.retrain_every == 0:
            self.retrain(models)

    # -- training -----------------------------------------------------------

    def retrain(self, models: FunctionModels, force: bool = False) -> None:
        if len(models.samples) < 2:
            return
        if (
            not force
            and models.memory_model is not None
            and models.fitted_version == models.samples_version
        ):
            # Curation added nothing since the last fit; J48 is
            # deterministic, so refitting would rebuild the exact same
            # trees.  (Pre-maturity this never triggers: every
            # completion appends a sample.)
            models.retrains_skipped += 1
            return
        samples = models.samples
        dataset = Dataset(
            [s.features for s in samples],
            [s.memory_label for s in samples],
            weights=[s.weight for s in samples],
        )
        if dataset.n_classes < 1:
            return
        models.memory_model = J48Classifier().fit(dataset)
        # One feature table, two label vectors: the benefit model sees
        # the same rows, unweighted.
        models.benefit_model = J48Classifier().fit(
            dataset.relabel([s.cache_label for s in samples])
        )
        models.retrains += 1
        models.fitted_version = models.samples_version
        self._publish_models(models)
        if (
            not models.mature
            and models.invocations_seen >= self.config.min_history_for_maturity
        ):
            if self._check_maturity(models, dataset):
                models.mature = True
                models.matured_after = models.invocations_seen

    def _publish_models(self, models: FunctionModels) -> None:
        if self.registry is not None and models.function_key in self.registry:
            self.registry.store_model(
                models.function_key, "memory", models.memory_model
            )
            self.registry.store_model(
                models.function_key, "benefit", models.benefit_model
            )

    def adopt_models(self, models: FunctionModels) -> None:
        """Install externally trained per-function state.

        Used by the shared warm-model cache: a cache hit injects the
        deserialized :class:`FunctionModels` exactly as the cold
        pretraining path would have left it, then republishes the
        fitted models to the function registry.
        """
        self._models[models.function_key] = models
        if models.memory_model is not None:
            self._publish_models(models)

    def _check_maturity(self, models: FunctionModels, dataset: Dataset) -> bool:
        """The §5.3.1 maturation criterion.

        Evaluated against the accumulated invocation history
        (``dataset``, the memory dataset just fitted) with the freshly
        trained model (the check the online system can afford); a
        pruned J48 on an unpredictable function stays close to the
        majority class and keeps failing the 90 % EO bar.
        """
        if len(dataset) < 6 or models.memory_model is None:
            return False
        eo_hits = 0
        under_total = 0
        under_near = 0
        total = 0
        predictions = models.memory_model.predict(dataset.rows)
        for true_label, predicted in zip(dataset.labels, predictions):
            total += 1
            if predicted >= true_label:
                eo_hits += 1
            else:
                under_total += 1
                if predicted == true_label - 1:
                    under_near += 1
        if total == 0:
            return False
        if eo_hits / total < self.config.maturity_eo_threshold:
            return False
        if under_total == 0:
            return True
        return under_near / under_total >= self.config.maturity_near_threshold

    # -- aggregate stats -------------------------------------------------------

    def maturity_report(self) -> Dict[str, Optional[int]]:
        """function key -> invocations needed to mature (None if not yet)."""
        return {
            key: models.matured_after for key, models in self._models.items()
        }
