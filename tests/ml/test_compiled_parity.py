"""Parity gate for the compiled inference path (the PR's tentpole).

The compiled tree — flattened arrays plus generated code — must agree
with the reference ``_Node`` walk (``tests/ml/reference_tree.py``) on
*every* row, including the messy
ones: missing features, non-numeric values at numeric nodes, unseen
nominal values, NaN/inf, numeric strings and bools.  These tests are
property-style: many random weighted datasets with mixed feature
types, full-row-set comparison on both in-distribution and adversarial
rows.
"""

from __future__ import annotations

import pickle
from functools import partial

import numpy as np
import pytest

from repro.ml.compiled import MAX_CODEGEN_DEPTH, CompiledTree
from repro.ml.dataset import Dataset
from repro.ml.tree import J48Classifier
from tests.ml import reference_tree

NOMINALS = ["h264", "vp9", "av1", True, False, "mjpeg"]


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


def _outcome(fn, row):
    try:
        return ("ok", fn(row))
    except TypeError:
        return ("TypeError", None)


@pytest.mark.parametrize("seed", range(8))
def test_compiled_matches_recursive_property(seed):
    rng = np.random.default_rng(seed)
    dataset = _random_dataset(rng, 300)
    clf = J48Classifier().fit(dataset)

    assert clf.compiled is not None
    # Structure metrics come from the same flattening.
    assert clf.compiled.n_nodes == clf.n_nodes
    assert clf.compiled.depth == clf.depth

    got = clf.predict(dataset.rows)
    want = reference_tree.predict(clf, dataset.rows)
    assert list(got) == list(want)

    for row in _adversarial_rows(rng):
        assert _outcome(clf.predict_one, row) == _outcome(
            partial(reference_tree.predict_one, clf), row
        ), row


def test_generated_and_array_walk_agree():
    """The exec-generated function and the positional array walk are
    two implementations of the same tree; both must match."""
    rng = np.random.default_rng(42)
    dataset = _random_dataset(rng, 300)
    clf = J48Classifier().fit(dataset)
    compiled = clf.compiled
    # Code generation waits for the first prediction through the tree.
    assert compiled._fn is None and compiled._batch is None
    compiled.predict(dataset.rows[:1])
    assert compiled._fn is not None and compiled._batch is not None
    for row in list(dataset.rows[:50]) + _adversarial_rows(rng):
        walk = _outcome(
            lambda r: compiled.predict_encoded(compiled.encode(r)), row
        )
        gen = _outcome(compiled._fn, row)
        assert walk == gen, row


def test_unhashable_nominal_raises_in_both_paths():
    rows = [{"codec": c} for c in ("a", "b") * 20]
    labels = [0 if r["codec"] == "a" else 1 for r in rows]
    clf = J48Classifier().fit(Dataset(rows, labels))
    # The fitted tree's root tests the nominal feature, so an
    # unhashable value reaches the dispatch table in both paths.
    assert clf.compiled.node_threshold[0] is None
    for fn in (clf.predict_one, partial(reference_tree.predict_one, clf)):
        with pytest.raises(TypeError):
            fn({"codec": []})


def test_pickle_round_trip_regenerates_code():
    rng = np.random.default_rng(3)
    dataset = _random_dataset(rng, 200)
    clf = J48Classifier().fit(dataset)
    clone = pickle.loads(pickle.dumps(clf))
    assert list(clone.predict(dataset.rows)) == list(
        reference_tree.predict(clf, dataset.rows)
    )
    assert clone.compiled._fn is not None
    for row in _adversarial_rows(rng):
        assert _outcome(clone.predict_one, row) == _outcome(
            partial(reference_tree.predict_one, clf), row
        )


def test_deep_tree_falls_back_to_array_walk():
    """Past the codegen depth cap the arrays carry inference alone."""

    class _Leaf:
        is_leaf = True
        prediction = 0
        threshold = None

    def _chain(depth):
        node = _Leaf()
        for d in range(depth):
            parent = type(
                "N",
                (),
                {
                    "is_leaf": False,
                    "feature": "x",
                    "threshold": float(d),
                    "prediction": d % 3,
                    "left": _Leaf(),
                    "right": node,
                },
            )()
            node = parent
        return node

    deep = CompiledTree(_chain(MAX_CODEGEN_DEPTH + 5), {"x": "numeric"})
    shallow = CompiledTree(_chain(5), {"x": "numeric"})
    # Deep tree still predicts through the walk.
    assert deep.predict_one({"x": -1.0}) == 0
    assert deep.predict([{"x": -1.0}, {}]).shape == (2,)
    assert deep._generated and deep._fn is None and deep._batch is None
    assert shallow.predict_one({"x": -1.0}) == 0
    assert shallow._fn is not None


def test_nonfinite_threshold_disables_codegen():
    class _Leaf:
        is_leaf = True
        prediction = 1
        threshold = None

    root = type(
        "N",
        (),
        {
            "is_leaf": False,
            "feature": "x",
            "threshold": float("inf"),
            "prediction": 0,
            "left": _Leaf(),
            "right": _Leaf(),
        },
    )()
    tree = CompiledTree(root, {"x": "numeric"})
    assert tree.predict_one({"x": 1.0}) == 1
    assert tree._generated and tree._fn is None
