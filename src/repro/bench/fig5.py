"""Figure 5: distribution of J48 memory-prediction errors (16 MB).

The paper reports that overpredictions stay close to the truth: 90 % of
them within 3 intervals, for an average waste of only 26.8 MB; and that
raw predictions skew toward exact-or-over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.bench.datasets import all_function_datasets
from repro.ml import J48Classifier


@dataclass
class Fig5Result:
    #: Signed error in MB (predicted upper bound - true upper bound).
    errors_mb: List[float]
    #: Histogram over interval offsets (offset -> count).
    offset_histogram: Dict[int, int]
    eo_fraction: float
    #: Among overpredictions: fraction within 3 intervals of the truth.
    over_within_3_intervals: float
    #: Mean wasted memory among overpredictions (MB).
    mean_waste_mb: float


def run_fig5(
    n_samples: int,
    interval_mb: float = 16.0,
    seed: int = 0,
    functions: Optional[List[str]] = None,
) -> Fig5Result:
    datasets = all_function_datasets(
        n=n_samples, seed=seed, interval_mb=interval_mb, functions=functions
    )
    errors_mb: List[float] = []
    offsets: List[int] = []
    for dataset in datasets.values():
        for train, test in dataset.split_folds(4, rng=np.random.default_rng(seed)):
            model = J48Classifier().fit(train)
            predictions = model.predict(test.rows)
            for true_label, predicted in zip(test.labels, predictions):
                offset = int(predicted) - int(true_label)
                offsets.append(offset)
                errors_mb.append(offset * interval_mb)
    offsets_arr = np.asarray(offsets)
    histogram: Dict[int, int] = {}
    for offset in offsets:
        histogram[offset] = histogram.get(offset, 0) + 1
    over = offsets_arr[offsets_arr > 0]
    eo_fraction = float((offsets_arr >= 0).mean())
    within3 = float((over <= 3).mean()) if len(over) else 1.0
    mean_waste = float((over * interval_mb).mean()) if len(over) else 0.0
    return Fig5Result(
        errors_mb=errors_mb,
        offset_histogram=dict(sorted(histogram.items())),
        eo_fraction=eo_fraction,
        over_within_3_intervals=within3,
        mean_waste_mb=mean_waste,
    )
