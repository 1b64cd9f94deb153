"""Figure 6: wall-clock prediction times.

Unlike the rest of the evaluation (which runs on simulated time), this
experiment measures *real* classification speed with
``time.perf_counter``: the paper's argument is that J48 predictions are
microsecond-scale (median 3.19 µs, p99 12.54 µs at 16 MB intervals)
while RandomForest costs ~106 µs at the median — too slow to sit on the
invocation critical path with tighter budgets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.bench.datasets import function_dataset
from repro.ml import J48Classifier, RandomForestClassifier
from repro.workloads.functions import ALL_FUNCTIONS, EVALUATION_FUNCTIONS


@dataclass
class Fig6Result:
    algorithm: str
    interval_mb: float
    median_us: float
    p99_us: float
    samples: int


def _time_predictions(model, rows, repeats: int = 3) -> List[float]:
    durations_us = []
    for _ in range(repeats):
        for row in rows:
            start = time.perf_counter()
            model.predict_one(row)
            durations_us.append((time.perf_counter() - start) * 1e6)
    return durations_us


def run_fig6(
    n_samples: int, seed: int = 0, functions: Optional[List[str]] = None
) -> List[Fig6Result]:
    """J48 at 8 and 16 MB intervals; RandomForest at 16 MB."""
    names = functions or EVALUATION_FUNCTIONS
    results: List[Fig6Result] = []
    for interval_mb in (8.0, 16.0):
        j48_times: List[float] = []
        forest_times: List[float] = []
        for i, name in enumerate(names):
            dataset = function_dataset(
                ALL_FUNCTIONS[name],
                n=n_samples,
                seed=seed + i,
                interval_mb=interval_mb,
            )
            j48 = J48Classifier().fit(dataset)
            j48_times.extend(_time_predictions(j48, dataset.rows[:100]))
            if interval_mb == 16.0:
                forest = RandomForestClassifier(
                    n_trees=20, rng=np.random.default_rng(seed)
                ).fit(dataset)
                forest_times.extend(_time_predictions(forest, dataset.rows[:50]))
        results.append(
            Fig6Result(
                algorithm="J48",
                interval_mb=interval_mb,
                median_us=float(np.median(j48_times)),
                p99_us=float(np.percentile(j48_times, 99)),
                samples=len(j48_times),
            )
        )
        if forest_times:
            results.append(
                Fig6Result(
                    algorithm="RandomForest",
                    interval_mb=interval_mb,
                    median_us=float(np.median(forest_times)),
                    p99_us=float(np.percentile(forest_times, 99)),
                    samples=len(forest_times),
                )
            )
    return results
