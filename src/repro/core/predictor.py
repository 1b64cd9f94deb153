"""Predictor: the critical-path sizing and benefit decisions (§4, §5.1).

Invoked by the Controller for every request.  Until a function's memory
model matures, the tenant's booked amount is used (§5.3.1); afterwards
the predicted interval is conservatively bumped one interval up, and
the sandbox gets the interval's upper bound.
"""

from __future__ import annotations

from typing import Generator

from repro.core.config import OFCConfig
from repro.core.features import extract_features
from repro.core.trainer import ModelTrainer
from repro.faas.platform import SizingDecision
from repro.faas.records import InvocationRecord, InvocationRequest
from repro.faas.registry import FunctionSpec
from repro.sim.kernel import Kernel
from repro.sim.latency import OFC_CONTROL_OVERHEAD
from repro.storage.object_store import ObjectStore


class Predictor:
    """Per-invocation memory and cache-benefit prediction."""

    def __init__(
        self,
        kernel: Kernel,
        trainer: ModelTrainer,
        store: ObjectStore,
        config: OFCConfig,
        rng,
    ):
        self.kernel = kernel
        self.trainer = trainer
        self.store = store
        self.config = config
        self.rng = rng

    def sizing_policy(
        self,
        request: InvocationRequest,
        spec: FunctionSpec,
        record: InvocationRecord,
    ) -> Generator[object, object, SizingDecision]:
        """The platform sizing hook (runs on the critical path)."""
        yield OFC_CONTROL_OVERHEAD.sample(self.rng)
        features = extract_features(request, spec, self.store)
        models = self.trainer.models_for(spec.key)
        intervals = self.trainer.intervals
        memory_mb = spec.booked_memory_mb
        predicted_interval = None
        if models.mature and models.memory_model is not None:
            raw = models.memory_model.predict_one(features)
            predicted_interval = int(raw)
            memory_mb = intervals.allocation_mb(raw, self.config.bump_intervals)
        should_cache = True
        if models.benefit_model is not None and len(models.samples) >= 10:
            should_cache = bool(models.benefit_model.predict_one(features))
        record.predicted_interval = predicted_interval
        return SizingDecision(
            memory_mb=memory_mb,
            should_cache=should_cache,
            predicted_mb=memory_mb if predicted_interval is not None else None,
            features=features,
        )
