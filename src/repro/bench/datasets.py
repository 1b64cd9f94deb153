"""Labelled datasets for the ML evaluation (§7.1).

Builds, for each of the 19 evaluation functions, the dataset OFC would
have accumulated from invocation telemetry: request features (media
metadata + opaque arguments) labelled with the observed memory interval.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.trainer import cache_benefit_label
from repro.faas.records import InvocationRecord, InvocationRequest, Phases
from repro.ml.dataset import Dataset
from repro.ml.intervals import MemoryIntervals
from repro.storage.latency_profiles import SWIFT_PROFILE
from repro.workloads.functions import (
    ALL_FUNCTIONS,
    EVALUATION_FUNCTIONS,
    FunctionModel,
)
from repro.workloads.media import MediaCorpus


def feature_row(media, args) -> Dict:
    row = dict(media.features())
    for name, value in args.items():
        row[f"arg_{name}"] = (
            float(value) if isinstance(value, (int, float)) else value
        )
    return row


def synthetic_record(
    model: FunctionModel, media, args, rng, tenant: str
) -> InvocationRecord:
    """The telemetry one completed invocation of ``model`` on ``media``
    would have left, from the hidden ground truth (``rng`` draws the
    footprint noise)."""
    record = InvocationRecord(
        request=InvocationRequest(function=model.name, tenant=tenant, args=args),
        status="ok",
        peak_memory_mb=model.footprint_mb(media, args, rng),
        features=feature_row(media, args),
    )
    record.phases = Phases(transform=model.transform_time(media, args))
    record.bytes_in = media.size
    record.bytes_out = model.output_size(media, args)
    return record


def function_dataset(
    model: FunctionModel,
    n: int = 400,
    seed: int = 0,
    interval_mb: float = 16.0,
    max_mb: float = 2048.0,
) -> Dataset:
    """``n`` labelled samples of one function's memory behaviour."""
    rng = np.random.default_rng(seed)
    corpus = MediaCorpus(np.random.default_rng(seed + 1))
    intervals = MemoryIntervals(interval_mb=interval_mb, max_mb=max_mb)
    rows: List[Dict] = []
    labels: List[int] = []
    for _ in range(n):
        media = corpus.generate(model.input_kind)
        args = model.sample_args(rng)
        rows.append(feature_row(media, args))
        labels.append(intervals.label(model.footprint_mb(media, args, rng)))
    return Dataset(rows, labels)


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
    threshold: float = 0.5,
) -> Dataset:
    """Cache-benefit labels: does E+L dominate on the Swift RSDS (§5.2)?"""
    rng = np.random.default_rng(seed)
    corpus = MediaCorpus(np.random.default_rng(seed + 1))
    rows: List[Dict] = []
    labels: List[int] = []
    for _ in range(n):
        media = corpus.generate(model.input_kind)
        args = model.sample_args(rng)
        rows.append(feature_row(media, args))
        labels.append(
            cache_benefit_label(
                media.size,
                model.output_size(media, args),
                model.transform_time(media, args),
                SWIFT_PROFILE,
                threshold,
            )
        )
    return Dataset(rows, labels)
