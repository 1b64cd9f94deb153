"""What ``J48Classifier.predict_one`` does, stated against the tree.

Routing: a numeric node sends ``value <= threshold`` left and
everything else (NaN included) right; a nominal node follows the child
keyed by the value.  Fallbacks: a missing, ``None`` or uncoercible
value at a numeric node, and an unseen value at a nominal node, return
*that node's* majority; an unhashable nominal value raises
``TypeError``.  Numeric strings and bools coerce through ``float``.

The tests are property-style: eight random weighted datasets with mixed
feature types; every node of every fitted tree is visited with a row
built to reach it, and adversarial rows the training distribution never
produced are checked against the equivalences the rules above imply.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.ml.dataset import Dataset
from repro.ml.tree import J48Classifier

NOMINALS = ["h264", "vp9", "av1", True, False, "mjpeg"]
NUMERIC = ("size", "ratio")


def _random_dataset(rng: np.random.Generator, n_rows: int) -> Dataset:
    """Mixed numeric/nominal rows with integer-valued weights (exact in
    float arithmetic, so tie handling cannot depend on summation
    order)."""
    rows = []
    labels = []
    weights = []
    for _ in range(n_rows):
        size = float(rng.integers(0, 200))
        rows.append(
            {
                "size": size,
                "ratio": float(rng.integers(0, 8)),
                "codec": NOMINALS[int(rng.integers(0, len(NOMINALS)))],
            }
        )
        labels.append(int(size // 40 + rng.integers(0, 2)))
        weights.append(float(rng.integers(1, 4)))
    return Dataset(rows, labels, weights=weights)


def _adversarial_rows(rng: np.random.Generator):
    """Rows the training distribution never produced."""
    specials = [
        None,
        float("nan"),
        float("inf"),
        -float("inf"),
        "12.5",
        "garbage",
        True,
        "unseen-value",
        0,
        -1.0,
    ]
    rows = [{}, {"size": None}, {"codec": "never-seen"}]
    for _ in range(40):
        row = {}
        for feature in ("size", "ratio", "codec"):
            if rng.random() < 0.7:
                row[feature] = specials[int(rng.integers(0, len(specials)))]
        rows.append(row)
    return rows


def _reached(node, row=None, bounds=None):
    """Every node of the subtree, each with a row the routing rule sends
    to it.  ``bounds`` holds, per numeric feature, the ``(lo, hi]``
    interval the path so far allows; a left turn takes the threshold
    itself, so the ``<=`` boundary is what gets exercised."""
    row = row or {}
    bounds = bounds or {}
    yield node, row
    if node.is_leaf:
        return
    feature = node.feature
    if node.threshold is None:
        for value, child in node.children.items():
            yield from _reached(child, {**row, feature: value}, bounds)
        return
    lo, hi = bounds.get(feature, (-math.inf, math.inf))
    cut = node.threshold
    assert lo < cut < hi
    yield from _reached(
        node.left, {**row, feature: cut}, {**bounds, feature: (lo, cut)}
    )
    beyond = hi if hi != math.inf else cut + 1.0
    yield from _reached(
        node.right, {**row, feature: beyond}, {**bounds, feature: (cut, hi)}
    )


def _fitted(seed):
    rng = np.random.default_rng(seed)
    dataset = _random_dataset(rng, 300)
    return J48Classifier().fit(dataset), dataset, rng


@pytest.mark.parametrize("seed", range(8))
def test_every_node_routes_and_falls_back_as_stated(seed):
    clf, _dataset, _rng = _fitted(seed)
    visited = list(_reached(clf._root))
    assert clf.n_nodes == len(visited)
    assert any(not node.is_leaf for node, _ in visited)
    for node, row in visited:
        if node.is_leaf:
            assert clf.predict_one(row) == node.prediction, row
            continue
        feature = node.feature
        if node.threshold is None:
            # Unseen (or absent, i.e. None) nominal value: this node.
            assert clf.predict_one({**row, feature: "never-seen"}) == node.prediction
            assert clf.predict_one(row) == node.prediction
            with pytest.raises(TypeError):
                clf.predict_one({**row, feature: []})
        elif feature not in row:
            # No ancestor tests this feature, so the row gets here
            # whatever it holds for it.
            assert clf.predict_one(row) == node.prediction
            for junk in (None, "garbage", [], {}):
                assert clf.predict_one({**row, feature: junk}) == node.prediction


@pytest.mark.parametrize("seed", range(8))
def test_adversarial_values_coerce_or_fall_back(seed):
    clf, dataset, rng = _fitted(seed)
    labels = set(dataset.labels.tolist())
    predict = clf.predict_one
    assert set(clf.predict(dataset.rows).tolist()) <= labels
    for row in _adversarial_rows(rng) + dataset.rows[:40]:
        assert predict(row) in labels, row
        for feature in NUMERIC:
            without = {k: v for k, v in row.items() if k != feature}
            # Missing, None and uncoercible are one case.
            assert (
                predict(without)
                == predict({**row, feature: None})
                == predict({**row, feature: "garbage"})
            )
            # Numeric strings, ints and bools coerce.
            assert predict({**row, feature: "12.5"}) == predict({**row, feature: 12.5})
            assert predict({**row, feature: True}) == predict({**row, feature: 1.0})
            assert predict({**row, feature: 0}) == predict({**row, feature: 0.0})
            # NaN is not <= anything: right at every node, like +inf.
            assert predict({**row, feature: math.nan}) == predict(
                {**row, feature: math.inf}
            )


def test_unhashable_nominal_raises_type_error():
    rows = [{"codec": c} for c in ("a", "b") * 20]
    labels = [0 if r["codec"] == "a" else 1 for r in rows]
    clf = J48Classifier().fit(Dataset(rows, labels))
    # The fitted tree's root tests the nominal feature, so an
    # unhashable value reaches its child table.
    assert clf._root.children is not None
    with pytest.raises(TypeError):
        clf.predict_one({"codec": []})
    with pytest.raises(TypeError):
        clf.predict([{"codec": "a"}, {"codec": []}])


def test_unfitted_classifier_raises_runtime_error():
    clf = J48Classifier()
    assert clf.n_nodes == 0 and clf.depth == 0
    for predict, arg in ((clf.predict_one, {}), (clf.predict, [{}])):
        with pytest.raises(RuntimeError):
            predict(arg)


def test_pickled_classifier_predicts_identically():
    clf, dataset, rng = _fitted(3)
    clone = pickle.loads(pickle.dumps(clf))
    assert (clone.n_nodes, clone.depth) == (clf.n_nodes, clf.depth)
    assert list(clone.predict(dataset.rows)) == list(clf.predict(dataset.rows))
    for row in _adversarial_rows(rng):
        assert clone.predict_one(row) == clf.predict_one(row), row
