"""The split-search oracle: J48 with its straightforward numeric split.

:class:`ReferenceJ48` is ``J48Classifier`` with the numeric split search
it had before the flat-span early-out: it gathers the node's sorted
column and finds the cut candidates with ``np.diff`` at every node,
whether or not the column varies there.  ``test_tree_oracle.py`` holds
the production tree node for node to it.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.ml.tree import _entropy, _EPS, _Split, J48Classifier


class ReferenceJ48(J48Classifier):
    def _numeric_split(
        self,
        feature: str,
        sorted_indices: np.ndarray,
        parent_entropy: float,
        total_weight: float,
    ) -> Optional[_Split]:
        sorted_values = self._columns[feature][sorted_indices]
        # Candidate cut positions: where the value actually changes.
        change = np.nonzero(np.diff(sorted_values) > _EPS)[0]
        if not len(change):
            return None
        labels = self._labels[sorted_indices]
        weights = self._weights[sorted_indices]
        n = len(sorted_values)
        # Cumulative weighted class counts for O(1) entropy per cut.
        one_hot = np.zeros((n, self._n_classes))
        one_hot[np.arange(n), labels] = weights
        cum = one_hot.cumsum(axis=0)
        total_counts = cum[-1]
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
