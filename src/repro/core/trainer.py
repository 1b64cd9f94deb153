"""ModelTrainer: per-function model lifecycle (§5.3).

The trainer listens to invocation completions (offline telemetry, such
as pretraining's, enters through :meth:`ModelTrainer.ingest`), curates
a small but valuable training set per function, checks the maturation
criterion, and (re)trains two J48 models per function:

* the **memory model** — a classifier over memory intervals;
* the **cache-benefit model** — a binary classifier predicting whether
  Extract+Load would dominate the invocation without a cache (§5.2).

Training-set curation after maturity (§5.3.3): only underpredictions
and extreme overpredictions (k - k* > 6 intervals) are added, and
underprediction samples carry a higher weight.

Both paths fit only the trees something reads.  The predictor reads
the memory tree once the function is mature and the benefit tree from
10 samples on; the maturation check reads the memory tree at each
retrain point from :data:`MIN_HISTORY_FOR_MATURITY` on.  So before that
point an online retrain fits the benefit tree alone, and pretraining
(:meth:`ModelTrainer.ingest`) fits the memory tree at the checks and
both trees once at the end.  ``tests/core/test_online_training_oracle.py``
and ``tests/bench/test_pretrain_oracle.py`` hold both against the loop
that fits both trees at every retrain point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro import slotted
from repro.faas.platform import MAX_SANDBOX_MB
from repro.faas.records import InvocationRecord
from repro.ml.dataset import Dataset
from repro.ml.intervals import MemoryIntervals
from repro.ml.tree import J48Classifier
from repro.sim.latency import SWIFT_PROFILE

#: Retrain and maturity-check cadence, in completed invocations.
RETRAIN_EVERY = 25
#: Invocations before the first maturity check (§7.1.3).
MIN_HISTORY_FOR_MATURITY = 100
#: Maturation criterion (§5.3.1): the fraction of exact-or-over
#: predictions, and the fraction of underpredictions within one
#: interval of the truth.
MATURITY_EO_THRESHOLD = 0.90
MATURITY_NEAR_THRESHOLD = 0.50
#: After maturity, keep only underpredictions and extreme
#: overpredictions (k - k* > this) in the training set (§5.3.3).
EXTREME_OVER_INTERVALS = 6
#: Weight given to underprediction samples on retraining.
UNDERPREDICTION_WEIGHT = 3.0
#: E+L fraction above which caching is considered beneficial (§5.2).
CACHE_BENEFIT_THRESHOLD = 0.5


@slotted
@dataclass
class TrainingSample:
    """One curated example.  ``features`` is the completed invocation
    record's feature row, shared rather than copied (an interned,
    read-only :class:`~repro.core.features.FeatureRow`)."""

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


def cache_benefit_label(bytes_in: int, bytes_out: int, transform_s: float) -> int:
    """Would E+L dominate an invocation *without* a cache (§5.2)?

    Uses the Swift RSDS latency profile and the transfer volumes, so
    the label is cache-independent even when the invocation itself was
    served from the cache.
    """
    est_extract = SWIFT_PROFILE.read.mean(bytes_in)
    est_load = SWIFT_PROFILE.write.mean(bytes_out)
    total = est_extract + est_load + transform_s
    return int((est_extract + est_load) / total > CACHE_BENEFIT_THRESHOLD)


class ModelTrainer:
    """Accumulates telemetry and maintains the per-function models."""

    def __init__(self):
        # The paper's 16 MB intervals over OpenWhisk's sandbox range.
        self.intervals = MemoryIntervals(max_mb=MAX_SANDBOX_MB)
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
        """Platform completion listener: learn from one invocation.

        A retrain point fits only the trees something reads.  Short of
        :data:`MIN_HISTORY_FOR_MATURITY` invocations, that is the benefit
        tree (the predictor reads it from 10 samples on); from the first
        maturation check on, and so always after maturity, it is both
        (:meth:`retrain`).  A completion that curation drops builds no
        sample.
        """
        if record.status != "ok" or not record.features:
            return
        models = self.models_for(record.request.key)
        models.invocations_seen += 1
        true_label = self.intervals.label(record.peak_memory_mb)
        keep = True
        weight = 1.0
        retrain_now = False
        if models.mature and record.predicted_interval is not None:
            predicted = record.predicted_interval
            if predicted >= true_label:
                self.good_predictions += 1
                # Exact/near predictions are not added (the set stays
                # small); extreme overpredictions are.
                keep = predicted - true_label > EXTREME_OVER_INTERVALS
            else:
                self.bad_predictions += 1
                weight = UNDERPREDICTION_WEIGHT
                # §5.3.1: memory exhaustion corrections happen quickly.
                retrain_now = record.oom_kills > 0
        if keep:
            models.add_sample(
                TrainingSample(
                    features=record.features,
                    memory_label=true_label,
                    cache_label=cache_benefit_label(
                        record.bytes_in,
                        record.bytes_out,
                        record.phases.transform,
                    ),
                    weight=weight,
                )
            )
        if retrain_now or models.invocations_seen % RETRAIN_EVERY == 0:
            # A mature function is past the first check: maturity is only
            # ever granted from MIN_HISTORY_FOR_MATURITY invocations on.
            if models.invocations_seen >= MIN_HISTORY_FOR_MATURITY:
                self.retrain(models)
            elif len(models.samples) >= 2:
                # Nothing reads a memory tree yet; drop one pretraining
                # left, so that a set memory tree is always current.
                models.memory_model = None
                self._fit_benefit(models, self._table(models))

    def ingest(
        self, function_key: str, samples: Iterable[TrainingSample]
    ) -> FunctionModels:
        """Learn offline from telemetry that carries no prediction.

        Leaves the trees, curated set, maturity and versions that one
        completion per sample, fitting both trees at every retrain
        point, followed by a trailing :meth:`retrain` would: every
        sample is appended and maturity is checked at the same retrain
        points.  Only the trees that sequence reads are fitted, though
        (so ``retrains`` counts fewer): the memory tree at each retrain
        point from :data:`MIN_HISTORY_FOR_MATURITY` on while the model is
        immature (the maturation check reads it), and both trees once at
        the end.  ``samples`` is consumed lazily, so a generator may stop
        once ``models.mature``.
        """
        models = self.models_for(function_key)
        checked: Optional[Dataset] = None
        for sample in samples:
            models.invocations_seen += 1
            models.add_sample(sample)
            if (
                not models.mature
                and models.invocations_seen % RETRAIN_EVERY == 0
                and models.invocations_seen >= MIN_HISTORY_FOR_MATURITY
            ):
                checked = self._fit_memory(models)
                if checked is not None:
                    self._update_maturity(models, checked)
        if checked is not None and len(checked) == len(models.samples):
            # The last check fitted the memory tree on this very set.
            self._fit_benefit(models, checked)
        else:
            self.retrain(models)
        return models

    # -- training -----------------------------------------------------------

    def retrain(self, models: FunctionModels, force: bool = False) -> None:
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
        dataset = self._fit_memory(models)
        if dataset is not None:
            self._fit_benefit(models, dataset)
            self._update_maturity(models, dataset)

    def _table(self, models: FunctionModels) -> Dataset:
        """The curated set as the memory tree's (weighted) dataset."""
        samples = models.samples
        return Dataset(
            [s.features for s in samples],
            [s.memory_label for s in samples],
            weights=[s.weight for s in samples],
        )

    def _fit_memory(self, models: FunctionModels) -> Optional[Dataset]:
        """Fit the memory tree on the curated set; returns the dataset
        it was fitted on (None: too few samples to fit)."""
        if len(models.samples) < 2:
            return None
        dataset = self._table(models)
        if dataset.n_classes < 1:
            return None
        models.memory_model = J48Classifier().fit(dataset)
        models.retrains += 1
        return dataset

    def _fit_benefit(self, models: FunctionModels, dataset: Dataset) -> None:
        """Complete a retrain: fit the benefit tree on ``dataset``'s
        feature table."""
        # One feature table, two label vectors: the benefit model sees
        # the same rows, unweighted.
        models.benefit_model = J48Classifier().fit(
            dataset.relabel([s.cache_label for s in models.samples])
        )
        models.fitted_version = models.samples_version

    def _update_maturity(self, models: FunctionModels, dataset: Dataset) -> None:
        if (
            not models.mature
            and models.invocations_seen >= MIN_HISTORY_FOR_MATURITY
            and self._check_maturity(models, dataset)
        ):
            models.mature = True
            models.matured_after = models.invocations_seen

    def adopt_models(self, models: FunctionModels) -> None:
        """Install externally trained per-function state.

        Used by the shared warm-model cache: a cache hit injects the
        deserialized :class:`FunctionModels` exactly as the cold
        pretraining path would have left it.
        """
        self._models[models.function_key] = models

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
        if eo_hits / total < MATURITY_EO_THRESHOLD:
            return False
        if under_total == 0:
            return True
        return under_near / under_total >= MATURITY_NEAR_THRESHOLD
