"""The plain walk over a fitted J48's ``_Node`` tree: the oracle of
``repro.ml.compiled``.

This is how ``J48Classifier`` predicted before the tree was flattened
and code-generated.  ``tests/ml/test_compiled_parity.py`` requires the
compiled path to return the same label for every row, and
``benchmarks/test_fig6_prediction_speed.py`` not to be the slower one.
"""

import numpy as np


def predict_one(classifier, row):
    node = classifier._root
    if node is None:
        raise RuntimeError("classifier is not fitted")
    while not node.is_leaf:
        value = row.get(node.feature)
        if node.threshold is not None:
            try:
                numeric = float(value)
            except (TypeError, ValueError):
                break  # unseen/missing: fall back to this node's majority
            node = node.left if numeric <= node.threshold else node.right
        else:
            child = node.children.get(value)  # TypeError if unhashable
            if child is None:
                break
            node = child
    return node.prediction


def predict(classifier, rows):
    return np.asarray([predict_one(classifier, row) for row in rows])
