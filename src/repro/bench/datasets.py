"""Labelled datasets for the ML evaluation (§7.1).

Builds, for each of the 19 evaluation functions, the dataset OFC would
have accumulated from invocation telemetry: request features (media
metadata + opaque arguments) labelled with the observed memory interval.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.core.features import build_row, FeatureRow
from repro.core.trainer import cache_benefit_label, ModelTrainer, TrainingSample
from repro.faas.platform import MAX_SANDBOX_MB
from repro.ml.dataset import Dataset
from repro.ml.intervals import MemoryIntervals
from repro.workloads.functions import (
    ALL_FUNCTIONS,
    EVALUATION_FUNCTIONS,
    FunctionModel,
)
from repro.workloads.media import MediaCorpus


def feature_row(media, args) -> FeatureRow:
    """The row OFC would extract for an invocation with ``args`` on
    ``media`` (its features are the object's tags): the same interned
    row the request path builds."""
    return build_row(media.features(), args)


def synthetic_sample(
    trainer: ModelTrainer, model: FunctionModel, media, args, rng
) -> TrainingSample:
    """The training sample ``trainer`` would take from one completed
    invocation of ``model`` on ``media``, from the hidden ground truth
    (``rng`` draws the footprint noise)."""
    return TrainingSample(
        features=feature_row(media, args),
        memory_label=trainer.intervals.label(model.footprint_mb(media, args, rng)),
        cache_label=cache_benefit_label(
            media.size,
            model.output_size(media, args),
            model.transform_time(media, args),
        ),
    )


def _sampled_dataset(
    model: FunctionModel,
    n: int,
    seed: int,
    label: Callable[[Any, Dict[str, Any], np.random.Generator], int],
) -> Dataset:
    """``n`` feature rows of ``model`` on a seeded corpus, each labelled
    by ``label(media, args, rng)``; a label that draws from ``rng`` does
    so between one sample's arguments and the next's."""
    rng = np.random.default_rng(seed)
    corpus = MediaCorpus(np.random.default_rng(seed + 1))
    rows: List[Dict] = []
    labels: List[int] = []
    for _ in range(n):
        media = corpus.generate(model.input_kind)
        args = model.sample_args(rng)
        rows.append(feature_row(media, args))
        labels.append(label(media, args, rng))
    return Dataset(rows, labels)


def function_dataset(
    model: FunctionModel,
    n: int = 400,
    seed: int = 0,
    interval_mb: float = 16.0,
) -> Dataset:
    """``n`` labelled samples of one function's memory behaviour."""
    intervals = MemoryIntervals(interval_mb=interval_mb, max_mb=MAX_SANDBOX_MB)
    return _sampled_dataset(
        model,
        n,
        seed,
        lambda media, args, rng: intervals.label(
            model.footprint_mb(media, args, rng)
        ),
    )


def all_function_datasets(
    n: int = 400,
    seed: int = 0,
    interval_mb: float = 16.0,
    functions: Optional[List[str]] = None,
) -> Dict[str, Dataset]:
    names = functions or EVALUATION_FUNCTIONS
    return {
        name: function_dataset(
            ALL_FUNCTIONS[name], n=n, seed=seed + i, interval_mb=interval_mb
        )
        for i, name in enumerate(names)
    }


def benefit_dataset(
    model: FunctionModel,
    n: int = 400,
    seed: int = 0,
) -> Dataset:
    """Cache-benefit labels: does E+L dominate on the Swift RSDS (§5.2)?"""
    return _sampled_dataset(
        model,
        n,
        seed,
        lambda media, args, _rng: cache_benefit_label(
            media.size,
            model.output_size(media, args),
            model.transform_time(media, args),
        ),
    )
