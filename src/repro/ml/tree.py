"""J48: a C4.5-style decision tree classifier.

Implements the parts of C4.5 the paper relies on (§5.1.1):

* gain-ratio split selection;
* binary splits on numeric attributes, multiway splits on nominal ones
  (no semantic knowledge of argument values is needed — for nominal
  features only their observed ensemble matters, §5.1.2);
* sample weights (the ModelTrainer over-weights underprediction
  examples, §5.3.3);
* pessimistic error pruning with C4.5's default confidence factor.

Prediction is a fast tree walk over a feature dict — the property that
makes J48 usable on the invocation critical path (§7.1.2).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.ml.dataset import Dataset

_EPS = 1e-12


@lru_cache(maxsize=4096)
def _zero_error_bound(n: float, cf: float) -> float:
    """C4.5's exact binomial bound for zero observed errors, cached —
    pruning evaluates it twice per node and node weights repeat."""
    return 1.0 - cf ** (1.0 / n)


def _entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total <= 0:
        return 0.0
    probs = counts[counts > 0] / total
    return float(-(probs * np.log2(probs)).sum())


def _upper_error_bound(n: float, e: float, z: float, cf: float = 0.25) -> float:
    """C4.5's pessimistic (one-sided upper) error rate estimate.

    Uses the exact binomial bound for the e == 0 and e < 1 special
    cases (as C4.5 does) and the normal approximation otherwise.
    """
    if n <= 0:
        return 0.0
    if e < _EPS:
        return _zero_error_bound(n, cf)
    if e < 1.0:
        base = _zero_error_bound(n, cf)
        return base + e * (_upper_error_bound(n, 1.0, z, cf) - base)
    f = e / n
    z2 = z * z
    numerator = (
        f
        + z2 / (2 * n)
        + z * math.sqrt(max(0.0, f / n - f * f / n + z2 / (4 * n * n)))
    )
    return numerator / (1 + z2 / n)


class _Node:
    __slots__ = (
        "is_leaf",
        "prediction",
        "class_counts",
        "feature",
        "threshold",
        "left",
        "right",
        "children",
    )

    def __init__(self, prediction: int, class_counts: np.ndarray):
        self.is_leaf = True
        self.prediction = prediction
        self.class_counts = class_counts
        self.feature: Optional[str] = None
        self.threshold: Optional[float] = None
        self.left: Optional["_Node"] = None
        self.right: Optional["_Node"] = None
        self.children: Optional[Dict[Any, "_Node"]] = None

    def subtree_nodes(self) -> List["_Node"]:
        nodes = [self]
        if not self.is_leaf:
            for child in self._child_list():
                nodes.extend(child.subtree_nodes())
        return nodes

    def _child_list(self) -> List["_Node"]:
        if self.children is not None:
            return list(self.children.values())
        return [c for c in (self.left, self.right) if c is not None]


class _Split:
    __slots__ = ("feature", "threshold", "partitions", "gain_ratio")

    def __init__(self, feature, threshold, partitions, gain_ratio):
        self.feature = feature
        self.threshold = threshold
        self.partitions = partitions  # list of (value_or_side, index array)
        self.gain_ratio = gain_ratio


class J48Classifier:
    """C4.5 decision tree.

    Parameters mirror Weka's J48 defaults: ``min_leaf`` instances per
    branch (2) and pruning confidence 0.25.  ``feature_subset`` draws a
    random subset of features at each node (used by the random-tree
    family, off for plain J48).
    """

    def __init__(
        self,
        min_leaf: int = 2,
        prune: bool = True,
        confidence: float = 0.25,
        max_depth: Optional[int] = None,
        feature_subset: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        self.min_leaf = min_leaf
        self.prune = prune
        self.confidence = confidence
        self.max_depth = max_depth
        self.feature_subset = feature_subset
        self.rng = rng
        self._root: Optional[_Node] = None
        self._majority: int = 0
        self._n_classes: int = 0
        # One-sided z for the pruning confidence (C4.5's CF), cached
        # per confidence level across classifier instances.
        self._z = _cached_normal_quantile(1.0 - confidence)

    # -- training ------------------------------------------------------------

    def fit(self, dataset: Dataset) -> "J48Classifier":
        if len(dataset) == 0:
            raise ValueError("cannot fit on an empty dataset")
        self._n_classes = max(dataset.n_classes, 1)
        self._columns = {
            name: dataset.column(name) for name in dataset.feature_names
        }
        self._types = {
            name: dataset.feature_type(name) for name in dataset.feature_names
        }
        self._labels = dataset.labels
        self._weights = dataset.weights
        self._feature_names = dataset.feature_names
        counts = np.bincount(
            self._labels, weights=self._weights, minlength=self._n_classes
        )
        self._majority = int(counts.argmax())
        # Presort every numeric column once (reusing the dataset's
        # cached orders — shared across refits of the same function);
        # nodes then partition the sorted orders instead of re-sorting.
        orders = {
            name: dataset.sort_order(name)
            for name in self._feature_names
            if self._types[name] == "numeric"
        }
        self._membership = np.zeros(len(dataset), dtype=bool)
        self._root = self._build(np.arange(len(dataset)), depth=0, orders=orders)
        del self._membership
        if self.prune:
            self._prune_node(self._root)
        # Release training references (the tree keeps what it needs).
        del self._columns, self._labels, self._weights
        return self

    def _class_counts(self, indices: np.ndarray) -> np.ndarray:
        return np.bincount(
            self._labels[indices],
            weights=self._weights[indices],
            minlength=self._n_classes,
        )

    def _child_orders(
        self,
        orders: Dict[str, np.ndarray],
        child_idx: np.ndarray,
        split_feature: str,
    ) -> Dict[str, np.ndarray]:
        """Filter every presorted order down to a child's index set.

        O(|child| x features) via a reusable membership mask — replaces
        the per-node O(m log m) argsort of the historical code.  The
        split feature's own order is the (already sorted) child slice.
        """
        mask = self._membership
        mask[child_idx] = True
        filtered = {
            name: child_idx
            if name == split_feature
            else order[mask[order]]
            for name, order in orders.items()
        }
        mask[child_idx] = False
        return filtered

    def _build(
        self,
        indices: np.ndarray,
        depth: int,
        orders: Dict[str, np.ndarray],
    ) -> _Node:
        counts = self._class_counts(indices)
        node = _Node(int(counts.argmax()), counts)
        if (
            len(indices) < 2 * self.min_leaf
            or np.count_nonzero(counts) <= 1
            or (self.max_depth is not None and depth >= self.max_depth)
        ):
            return node
        split = self._choose_split(indices, counts, orders)
        if split is None:
            return node
        node.is_leaf = False
        node.feature = split.feature
        node.threshold = split.threshold
        if split.threshold is not None:
            (_, left_idx), (_, right_idx) = split.partitions
            node.left = self._build(
                left_idx,
                depth + 1,
                self._child_orders(orders, left_idx, split.feature),
            )
            node.right = self._build(
                right_idx,
                depth + 1,
                self._child_orders(orders, right_idx, split.feature),
            )
        else:
            node.children = {
                value: self._build(
                    part_idx,
                    depth + 1,
                    self._child_orders(orders, part_idx, ""),
                )
                for value, part_idx in split.partitions
            }
        return node

    def _candidate_features(self) -> Sequence[str]:
        if self.feature_subset is None or self.feature_subset >= len(
            self._feature_names
        ):
            return self._feature_names
        rng = self.rng or np.random.default_rng(0)
        picked = rng.choice(
            len(self._feature_names), size=self.feature_subset, replace=False
        )
        return [self._feature_names[i] for i in picked]

    def _choose_split(
        self,
        indices: np.ndarray,
        parent_counts: np.ndarray,
        orders: Dict[str, np.ndarray],
    ) -> Optional[_Split]:
        parent_entropy = _entropy(parent_counts)
        total_weight = parent_counts.sum()
        best: Optional[_Split] = None
        for feature in self._candidate_features():
            if self._types[feature] == "numeric":
                split = self._numeric_split(
                    feature, orders[feature], parent_entropy, total_weight
                )
            else:
                split = self._nominal_split(
                    feature, indices, parent_entropy, total_weight
                )
            if split is not None and (
                best is None or split.gain_ratio > best.gain_ratio
            ):
                best = split
        return best

    def _numeric_split(
        self,
        feature: str,
        sorted_indices: np.ndarray,
        parent_entropy: float,
        total_weight: float,
    ) -> Optional[_Split]:
        # ``sorted_indices`` is the node's presorted order for this
        # feature (maintained top-down from the dataset's cached global
        # sort) — no per-node argsort.
        sorted_values = self._columns[feature][sorted_indices]
        labels = self._labels[sorted_indices]
        weights = self._weights[sorted_indices]
        n = len(sorted_values)
        # Cumulative weighted class counts for O(1) entropy per cut.
        one_hot = np.zeros((n, self._n_classes))
        one_hot[np.arange(n), labels] = weights
        cum = one_hot.cumsum(axis=0)
        total_counts = cum[-1]
        # Candidate cut positions: where the value actually changes.
        change = np.nonzero(np.diff(sorted_values) > _EPS)[0]
        best_gain_ratio = -1.0
        best_pos = None
        for pos in change:
            left_counts = cum[pos]
            left_w = left_counts.sum()
            right_counts = total_counts - left_counts
            right_w = right_counts.sum()
            if left_w < self.min_leaf or right_w < self.min_leaf:
                continue
            children_entropy = (
                left_w * _entropy(left_counts) + right_w * _entropy(right_counts)
            ) / total_weight
            gain = parent_entropy - children_entropy
            if gain <= _EPS:
                continue
            p_left = left_w / total_weight
            split_info = -(
                p_left * math.log2(p_left)
                + (1 - p_left) * math.log2(1 - p_left)
            )
            gain_ratio = gain / max(split_info, _EPS)
            if gain_ratio > best_gain_ratio:
                best_gain_ratio = gain_ratio
                best_pos = pos
        if best_pos is None:
            return None
        threshold = float(
            (sorted_values[best_pos] + sorted_values[best_pos + 1]) / 2.0
        )
        left_idx = sorted_indices[: best_pos + 1]
        right_idx = sorted_indices[best_pos + 1 :]
        return _Split(
            feature,
            threshold,
            [("<=", left_idx), (">", right_idx)],
            best_gain_ratio,
        )

    def _nominal_split(
        self,
        feature: str,
        indices: np.ndarray,
        parent_entropy: float,
        total_weight: float,
    ) -> Optional[_Split]:
        values = self._columns[feature][indices]
        partitions: Dict[Any, List[int]] = {}
        for i, value in zip(indices, values):
            partitions.setdefault(value, []).append(int(i))
        if len(partitions) < 2:
            return None
        children_entropy = 0.0
        split_info = 0.0
        parts = []
        for value, part in partitions.items():
            part_idx = np.asarray(part)
            counts = self._class_counts(part_idx)
            weight = counts.sum()
            if weight < self.min_leaf:
                return None  # C4.5 requires all branches to be viable
            children_entropy += weight * _entropy(counts) / total_weight
            p = weight / total_weight
            split_info -= p * math.log2(p)
            parts.append((value, part_idx))
        gain = parent_entropy - children_entropy
        if gain <= _EPS:
            return None
        return _Split(feature, None, parts, gain / max(split_info, _EPS))

    # -- pruning (subtree replacement, pessimistic error) ----------------------

    def _prune_node(self, node: _Node) -> float:
        """Returns the estimated error count for the (possibly pruned)
        subtree rooted at ``node``."""
        n = float(node.class_counts.sum())
        leaf_errors = n - float(node.class_counts.max()) if n > 0 else 0.0
        leaf_estimate = n * _upper_error_bound(
            n, leaf_errors, self._z, self.confidence
        )
        if node.is_leaf:
            return leaf_estimate
        subtree_estimate = sum(
            self._prune_node(child) for child in node._child_list()
        )
        if leaf_estimate <= subtree_estimate + 0.1:
            node.is_leaf = True
            node.feature = None
            node.threshold = None
            node.left = node.right = None
            node.children = None
            return leaf_estimate
        return subtree_estimate

    # -- prediction ----------------------------------------------------------

    def predict_one(self, row: Dict[str, Any]) -> int:
        node = self._root
        if node is None:
            raise RuntimeError("classifier is not fitted")
        while not node.is_leaf:
            value = row.get(node.feature)
            if node.threshold is not None:
                try:
                    numeric = float(value)
                except (TypeError, ValueError):
                    break  # missing/uncoercible: this node's majority
                node = node.left if numeric <= node.threshold else node.right
            else:
                child = node.children.get(value)  # TypeError if unhashable
                if child is None:
                    break  # unseen nominal value: this node's majority
                node = child
        return node.prediction

    def predict(self, rows: Sequence[Dict[str, Any]]) -> np.ndarray:
        return np.asarray([self.predict_one(row) for row in rows])

    # -- introspection -------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        if self._root is None:
            return 0
        return len(self._root.subtree_nodes())

    @property
    def depth(self) -> int:
        def walk(node: _Node) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(walk(child) for child in node._child_list())

        if self._root is None:
            return 0
        return walk(self._root)


@lru_cache(maxsize=64)
def _cached_normal_quantile(p: float) -> float:
    """Memoized inverse normal CDF — one value per confidence level,
    shared across every classifier the trainer ever constructs."""
    return _normal_quantile(p)


def _normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF (Acklam's rational approximation).

    Implemented locally so the tree has no scipy dependency on the
    prediction path.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    a = [
        -3.969683028665376e01,
        2.209460984245205e02,
        -2.759285104469687e02,
        1.383577518672690e02,
        -3.066479806614716e01,
        2.506628277459239e00,
    ]
    b = [
        -5.447609879822406e01,
        1.615858368580409e02,
        -1.556989798598866e02,
        6.680131188771972e01,
        -1.328068155288572e01,
    ]
    c = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e00,
        -2.549732539343734e00,
        4.374664141464968e00,
        2.938163982698783e00,
    ]
    d = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e00,
        3.754408661907416e00,
    ]
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        return (
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    if p <= 1 - p_low:
        q = p - 0.5
        r = q * q
        return (
            (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5])
            * q
            / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1)
        )
    q = math.sqrt(-2 * math.log(1 - p))
    return -(
        ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
    ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
