"""Table 1: accuracy of four tree learners across interval sizes.

Cross-validated exact and exact-or-over accuracy, averaged over the 19
evaluation functions, for J48, RandomForest, RandomTree and
HoeffdingTree with {32, 16, 8} MB intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.bench.datasets import all_function_datasets
from repro.ml import (
    cross_validate,
    HoeffdingTreeClassifier,
    J48Classifier,
    RandomForestClassifier,
    RandomTreeClassifier,
)

ALGORITHMS: Dict[str, Callable[[], object]] = {
    "HoeffdingTree": lambda: HoeffdingTreeClassifier(grace_period=40),
    "J48": J48Classifier,
    "RandomForest": lambda: RandomForestClassifier(
        n_trees=20, rng=np.random.default_rng(0)
    ),
    "RandomTree": lambda: RandomTreeClassifier(rng=np.random.default_rng(0)),
}

INTERVAL_SIZES_MB = (32.0, 16.0, 8.0)


@dataclass
class Table1Row:
    interval_mb: float
    algorithm: str
    exact_pct: float
    exact_or_over_pct: float


def run_table1(
    n_samples: int,
    folds: int,
    seed: int = 0,
    functions: Optional[List[str]] = None,
) -> List[Table1Row]:
    rows: List[Table1Row] = []
    for interval_mb in INTERVAL_SIZES_MB:
        datasets = all_function_datasets(
            n=n_samples, seed=seed, interval_mb=interval_mb, functions=functions
        )
        for algo_name, make in ALGORITHMS.items():
            exact_scores, eo_scores = [], []
            for fn_name, dataset in datasets.items():
                result = cross_validate(
                    make, dataset, k=folds, rng=np.random.default_rng(seed)
                )
                exact_scores.append(result["exact"])
                eo_scores.append(result["exact_or_over"])
            rows.append(
                Table1Row(
                    interval_mb=interval_mb,
                    algorithm=algo_name,
                    exact_pct=100.0 * float(np.mean(exact_scores)),
                    exact_or_over_pct=100.0 * float(np.mean(eo_scores)),
                )
            )
    return rows


def run_benefit_model_eval(
    n_samples: int, seed: int = 0, functions: Optional[List[str]] = None
) -> Dict[str, float]:
    """§7.1.1 'Prediction of cache benefit': J48 precision/recall/F.

    The paper reports 98.8 % precision, 98.6 % recall, F = 98.7 %.
    """
    from repro.bench.datasets import benefit_dataset
    from repro.ml import f_measure, precision_recall
    from repro.workloads.functions import ALL_FUNCTIONS, EVALUATION_FUNCTIONS

    names = functions or EVALUATION_FUNCTIONS
    precisions, recalls, fs = [], [], []
    for i, name in enumerate(names):
        dataset = benefit_dataset(ALL_FUNCTIONS[name], n=n_samples, seed=seed + i)
        labels = set(int(label) for label in dataset.labels)
        if len(labels) < 2:
            continue  # cache always (or never) useful: nothing to learn
        folds = dataset.split_folds(5, rng=np.random.default_rng(seed))
        y_true, y_pred = [], []
        for train, test in folds:
            model = J48Classifier().fit(train)
            y_true.extend(int(label) for label in test.labels)
            y_pred.extend(int(p) for p in model.predict(test.rows))
        precision, recall = precision_recall(y_true, y_pred)
        precisions.append(precision)
        recalls.append(recall)
        fs.append(f_measure(y_true, y_pred))
    return {
        "precision_pct": 100.0 * float(np.mean(precisions)),
        "recall_pct": 100.0 * float(np.mean(recalls)),
        "f_measure_pct": 100.0 * float(np.mean(fs)),
        "functions_evaluated": float(len(fs)),
    }
