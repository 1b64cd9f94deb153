"""J48's split search against the pre-early-out oracle.

``_numeric_split`` returns before gathering a node's column when the
column's span there is flat (no adjacent step of a sorted column can
exceed its span), and finds the cut candidates by slice subtraction.
Both are exact: on low-cardinality, integer-weighted datasets, where
flat spans and tied values are the rule, the tree must equal
:class:`tests.ml.reference_tree.ReferenceJ48`'s node for node (split
feature, threshold, branch order, class counts, prediction), pruned or
not.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import Dataset, J48Classifier
from tests.ml.reference_tree import ReferenceJ48

#: Few distinct values per column, so nodes often see a flat one.
NUMERIC = st.sampled_from([-2.0, 0.0, 0.5, 1.0, 3.0, 1e6])
NOMINAL = st.sampled_from(["a", "b", "c"])


@st.composite
def datasets(draw):
    n_numeric = draw(st.integers(min_value=1, max_value=4))
    n_nominal = draw(st.integers(min_value=0, max_value=2))
    n = draw(st.integers(min_value=2, max_value=80))
    n_classes = draw(st.integers(min_value=1, max_value=4))
    rows, labels, weights = [], [], []
    for _ in range(n):
        row = {f"x{i}": draw(NUMERIC) for i in range(n_numeric)}
        row.update({f"s{i}": draw(NOMINAL) for i in range(n_nominal)})
        rows.append(row)
        labels.append(draw(st.integers(min_value=0, max_value=n_classes - 1)))
        weights.append(float(draw(st.integers(min_value=1, max_value=3))))
    return Dataset(rows, labels, weights=weights)


def assert_same_node(got, want, path="root") -> None:
    assert got.is_leaf == want.is_leaf, path
    assert got.prediction == want.prediction, path
    assert np.array_equal(got.class_counts, want.class_counts), path
    assert got.feature == want.feature, path
    assert got.threshold == want.threshold, path
    if got.is_leaf:
        return
    if got.children is not None:
        assert list(got.children) == list(want.children), path
        for value in got.children:
            assert_same_node(
                got.children[value], want.children[value], f"{path}/{value}"
            )
    else:
        assert_same_node(got.left, want.left, f"{path}/<=")
        assert_same_node(got.right, want.right, f"{path}/>")


@settings(max_examples=150, deadline=None)
@given(datasets(), st.booleans(), st.integers(min_value=1, max_value=3))
def test_j48_equals_the_reference_split_search(dataset, prune, min_leaf):
    got = J48Classifier(prune=prune, min_leaf=min_leaf).fit(dataset)
    want = ReferenceJ48(prune=prune, min_leaf=min_leaf).fit(dataset)
    assert_same_node(got._root, want._root)
