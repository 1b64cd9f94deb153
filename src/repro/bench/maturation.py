"""§7.1.3: model maturation quickness.

For each function, stream synthetic training samples into a fresh
ModelTrainer (:meth:`ModelTrainer.ingest`, the path pretraining takes)
until the memory model satisfies the maturation criterion, and record
how many invocations that took.  The check runs at every retrain point
from ``MIN_HISTORY_FOR_MATURITY`` on, and once more at a budget that
is not itself a retrain point.  The paper reports: median 100
invocations (11 of 19 functions mature at the first check), 75 % under
250, 95 % under 450.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.bench.datasets import synthetic_sample
from repro.core.trainer import (
    MIN_HISTORY_FOR_MATURITY,
    ModelTrainer,
    RETRAIN_EVERY,
)
from repro.workloads.functions import ALL_FUNCTIONS, EVALUATION_FUNCTIONS
from repro.workloads.media import MediaCorpus


@dataclass
class MaturationResult:
    #: The budget: invocations streamed per function at most.
    max_invocations: int
    #: function -> invocations needed (None = did not mature in budget).
    per_function: Dict[str, Optional[int]]
    median: float
    p75: float
    p95: float
    matured_at_first_check: int


#: Where the maturation check first runs: the first retrain point at or
#: past ``MIN_HISTORY_FOR_MATURITY``.
FIRST_CHECK = -(-MIN_HISTORY_FOR_MATURITY // RETRAIN_EVERY) * RETRAIN_EVERY


def _stream_function(model, max_invocations: int, seed: int) -> Optional[int]:
    trainer = ModelTrainer()
    models = trainer.models_for(f"t0/{model.name}")
    rng = np.random.default_rng(seed)
    corpus = MediaCorpus(np.random.default_rng(seed + 1))

    def samples():
        for _ in range(max_invocations):
            if models.mature:
                return
            media = corpus.generate(model.input_kind)
            args = model.sample_args(rng)
            yield synthetic_sample(trainer, model, media, args, rng)

    trainer.ingest(models.function_key, samples())
    return models.matured_after


def run_maturation(
    max_invocations: int,
    seed: int = 0,
    functions: Optional[List[str]] = None,
) -> MaturationResult:
    names = functions or EVALUATION_FUNCTIONS
    per_function: Dict[str, Optional[int]] = {}
    for i, name in enumerate(names):
        per_function[name] = _stream_function(
            ALL_FUNCTIONS[name], max_invocations, seed + i
        )
    matured = [v for v in per_function.values() if v is not None]
    # Functions that never matured count as the budget (pessimistic).
    censored = [
        v if v is not None else max_invocations
        for v in per_function.values()
    ]
    return MaturationResult(
        max_invocations=max_invocations,
        per_function=per_function,
        median=float(np.median(censored)),
        p75=float(np.percentile(censored, 75)),
        p95=float(np.percentile(censored, 95)),
        matured_at_first_check=sum(1 for v in matured if v <= FIRST_CHECK),
    )
