"""Feature datasets for the tree learners.

Rows are plain dicts of ``feature name -> value`` (the shape in which
OFC extracts features from invocation requests, §5.1.2).  Values may be
numeric or nominal (strings/bools); the dataset infers each column's
type, which is exactly the situation the paper describes: the platform
knows argument names and values, but nothing about their semantics.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np


class Dataset:
    """A labelled set of feature dicts with inferred column types."""

    def __init__(
        self,
        rows: Sequence[Dict[str, Any]],
        labels: Sequence[int],
        weights: Optional[Sequence[float]] = None,
        feature_names: Optional[List[str]] = None,
    ):
        if len(rows) != len(labels):
            raise ValueError("rows and labels must have the same length")
        self.rows: List[Dict[str, Any]] = [dict(r) for r in rows]
        self.labels = np.asarray(labels, dtype=np.int64)
        if weights is None:
            self.weights = np.ones(len(rows), dtype=float)
        else:
            self.weights = np.asarray(weights, dtype=float)
            if len(self.weights) != len(rows):
                raise ValueError("weights length mismatch")
        if feature_names is not None:
            self.feature_names = list(feature_names)
        else:
            names: List[str] = []
            for row in self.rows:
                for key in row:
                    if key not in names:
                        names.append(key)
            self.feature_names = names
        self._types: Dict[str, str] = {}
        for name in self.feature_names:
            self._types[name] = self._infer_type(name)
        # Rows never change after construction, so materialized columns
        # and their stable sort orders are cached per feature.
        self._column_cache: Dict[str, np.ndarray] = {}
        self._order_cache: Dict[str, np.ndarray] = {}

    def _infer_type(self, name: str) -> str:
        """A column is nominal if *any* observed value is symbolic.

        Arguments are opaque (§5.1.2): nothing stops a tenant from
        sending a string where another invocation sent a number, so
        inference must scan the whole column.  A column with no
        observed value is numeric.
        """
        for row in self.rows:
            if isinstance(row.get(name), (str, bool)):
                return "nominal"
        return "numeric"

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def n_classes(self) -> int:
        if len(self.labels) == 0:
            return 0
        return int(self.labels.max()) + 1

    def feature_type(self, name: str) -> str:
        return self._types[name]

    def column(self, name: str) -> np.ndarray:
        """The column as a numpy array (object dtype for nominal)."""
        cached = self._column_cache.get(name)
        if cached is not None:
            return cached
        if self._types[name] == "numeric":
            values = []
            for row in self.rows:
                raw = row.get(name)
                try:
                    values.append(float(raw) if raw is not None else 0.0)
                except (TypeError, ValueError):
                    values.append(0.0)
            column = np.asarray(values)
        else:
            column = np.asarray(
                [row.get(name) for row in self.rows], dtype=object
            )
        self._column_cache[name] = column
        return column

    def sort_order(self, name: str) -> np.ndarray:
        """Stable (mergesort) argsort of a numeric column, cached.

        This is the presort the tree learner walks instead of
        re-sorting at every node; callers must treat it as read-only.
        """
        order = self._order_cache.get(name)
        if order is None:
            order = np.argsort(self.column(name), kind="mergesort")
            self._order_cache[name] = order
        return order

    def nominal_values(self, name: str) -> List[Any]:
        """The ensemble of values a nominal feature takes (§5.1.2)."""
        seen: List[Any] = []
        for row in self.rows:
            value = row.get(name)
            if value not in seen:
                seen.append(value)
        return seen

    # -- manipulation ---------------------------------------------------------

    def relabel(self, labels: Sequence[int]) -> "Dataset":
        """The same feature table under other labels, with unit weights.

        Rows, inferred types and the column and sort-order caches are
        shared with ``self`` (rows never change after construction);
        only the label and weight vectors are new.
        """
        if len(labels) != len(self.rows):
            raise ValueError("rows and labels must have the same length")
        other = copy.copy(self)
        other.labels = np.asarray(labels, dtype=np.int64)
        other.weights = np.ones(len(self.rows), dtype=float)
        return other

    def subset(self, indices: Sequence[int]) -> "Dataset":
        indices = list(indices)
        return Dataset(
            [self.rows[i] for i in indices],
            self.labels[indices],
            self.weights[indices],
            feature_names=self.feature_names,
        )

    def bootstrap(self, rng: np.random.Generator) -> "Dataset":
        """A bagging sample (with replacement) of the same size."""
        indices = rng.integers(0, len(self), size=len(self))
        return self.subset(indices)

    def split_folds(
        self, k: int, rng: Optional[np.random.Generator] = None
    ) -> List[Tuple["Dataset", "Dataset"]]:
        """K-fold partition; returns (train, test) pairs."""
        if k < 2:
            raise ValueError("need at least 2 folds")
        if len(self) < k:
            raise ValueError("fewer rows than folds")
        indices = np.arange(len(self))
        if rng is not None:
            rng.shuffle(indices)
        folds = np.array_split(indices, k)
        pairs = []
        for i in range(k):
            test_idx = folds[i]
            train_idx = np.concatenate([folds[j] for j in range(k) if j != i])
            pairs.append((self.subset(train_idx), self.subset(test_idx)))
        return pairs
