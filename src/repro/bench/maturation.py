"""§7.1.3: model maturation quickness.

For each function, stream synthetic invocation telemetry through a
fresh ModelTrainer and record how many invocations the memory model
needs before it satisfies the maturation criterion.  The paper reports:
median 100 invocations (11 of 19 functions mature at the first check),
75 % under 250, 95 % under 450.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.bench.datasets import synthetic_record
from repro.core.config import OFCConfig
from repro.core.trainer import ModelTrainer
from repro.workloads.functions import ALL_FUNCTIONS, EVALUATION_FUNCTIONS
from repro.workloads.media import MediaCorpus


@dataclass
class MaturationResult:
    #: function -> invocations needed (None = did not mature in budget).
    per_function: Dict[str, Optional[int]]
    median: float
    p75: float
    p95: float
    matured_at_first_check: int


def _stream_function(
    trainer: ModelTrainer,
    model,
    max_invocations: int,
    seed: int,
) -> Optional[int]:
    rng = np.random.default_rng(seed)
    corpus = MediaCorpus(np.random.default_rng(seed + 1))
    key = f"t0/{model.name}"
    for _i in range(max_invocations):
        media = corpus.generate(model.input_kind)
        args = model.sample_args(rng)
        record = synthetic_record(model, media, args, rng, "t0")
        trainer.on_completion(record)
        models = trainer.models_for(key)
        if models.mature:
            return models.matured_after
    return None


def run_maturation(
    max_invocations: int = 600,
    seed: int = 0,
    functions: Optional[List[str]] = None,
    config: Optional[OFCConfig] = None,
) -> MaturationResult:
    names = functions or EVALUATION_FUNCTIONS
    per_function: Dict[str, Optional[int]] = {}
    for i, name in enumerate(names):
        trainer = ModelTrainer(config or OFCConfig())
        per_function[name] = _stream_function(
            trainer, ALL_FUNCTIONS[name], max_invocations, seed + i
        )
    matured = [v for v in per_function.values() if v is not None]
    # Functions that never matured count as the budget (pessimistic).
    censored = [
        v if v is not None else max_invocations
        for v in per_function.values()
    ]
    first_check = OFCConfig().min_history_for_maturity
    return MaturationResult(
        per_function=per_function,
        median=float(np.median(censored)),
        p75=float(np.percentile(censored, 75)),
        p95=float(np.percentile(censored, 95)),
        matured_at_first_check=sum(1 for v in matured if v <= first_check),
    )
