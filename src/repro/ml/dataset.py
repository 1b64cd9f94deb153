"""Feature datasets for the tree learners.

Rows are plain dicts of ``feature name -> value`` (the shape in which
OFC extracts features from invocation requests, §5.1.2).  Values may be
numeric or nominal (strings/bools); the dataset infers each column's
type, which is exactly the situation the paper describes: the platform
knows argument names and values, but nothing about their semantics.
"""

from __future__ import annotations

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

    def adopt_sort_orders(self, prev: "Dataset") -> int:
        """Reuse ``prev``'s cached numeric sort orders when ``prev``'s
        rows are a prefix of this dataset's rows (append-only curation,
        §5.3.3): only the appended tail is sorted and merged in.

        The merge is exactly equivalent to a fresh stable sort — equal
        values keep index order because all appended indices are larger
        than every prefix index.  Columns whose prefix changed (e.g. a
        feature flipped nominal because of a new symbolic value) are
        verified and skipped.  Returns the number of orders adopted.
        """
        n_prev = len(prev)
        n = len(self)
        if n_prev > n:
            return 0
        adopted = 0
        for name, prev_order in prev._order_cache.items():
            if (
                self._types.get(name) != "numeric"
                or prev._types.get(name) != "numeric"
            ):
                continue
            column = self.column(name)
            prev_column = prev.column(name)
            if not np.array_equal(column[:n_prev], prev_column):
                continue
            tail = column[n_prev:]
            if len(tail) == 0:
                self._order_cache[name] = prev_order
                adopted += 1
                continue
            if np.isnan(tail).any() or np.isnan(prev_column).any():
                # searchsorted has no total order over NaN; fall back
                # to the fresh sort for this column.
                continue
            tail_order = np.argsort(tail, kind="mergesort")
            tail_sorted = tail[tail_order]
            prefix_sorted = prev_column[prev_order]
            # Ties place appended rows after prefix rows (side="right"),
            # matching stable-sort index order.
            positions = np.searchsorted(
                prefix_sorted, tail_sorted, side="right"
            )
            merged = np.empty(n, dtype=prev_order.dtype)
            targets = positions + np.arange(len(tail_sorted))
            mask = np.ones(n, dtype=bool)
            mask[targets] = False
            merged[targets] = tail_order + n_prev
            merged[mask] = prev_order
            self._order_cache[name] = merged
            adopted += 1
        return adopted

    def nominal_values(self, name: str) -> List[Any]:
        """The ensemble of values a nominal feature takes (§5.1.2)."""
        seen: List[Any] = []
        for row in self.rows:
            value = row.get(name)
            if value not in seen:
                seen.append(value)
        return seen

    # -- manipulation ---------------------------------------------------------

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
