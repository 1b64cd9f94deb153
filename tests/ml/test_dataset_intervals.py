"""Tests for Dataset and MemoryIntervals."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ml import Dataset, MemoryIntervals


def small_dataset():
    rows = [
        {"size": 10.0, "kind": "a"},
        {"size": 20.0, "kind": "b"},
        {"size": 30.0, "kind": "a"},
    ]
    return Dataset(rows, [0, 1, 0])


def test_dataset_basic_properties():
    ds = small_dataset()
    assert len(ds) == 3
    assert ds.n_classes == 2
    assert ds.feature_names == ["size", "kind"]
    assert ds.feature_type("size") == "numeric"
    assert ds.feature_type("kind") == "nominal"


def test_dataset_length_mismatch_raises():
    with pytest.raises(ValueError):
        Dataset([{"a": 1}], [0, 1])


def test_dataset_default_weights_are_ones():
    ds = small_dataset()
    assert np.all(ds.weights == 1.0)


def test_dataset_column_extraction():
    ds = small_dataset()
    assert list(ds.column("size")) == [10.0, 20.0, 30.0]
    assert list(ds.column("kind")) == ["a", "b", "a"]


def test_dataset_subset():
    ds = small_dataset()
    sub = ds.subset([0, 2])
    assert len(sub) == 2
    assert list(sub.labels) == [0, 0]


def test_dataset_bootstrap_same_size():
    ds = small_dataset()
    sample = ds.bootstrap(np.random.default_rng(0))
    assert len(sample) == 3


def test_split_folds_partition_everything():
    rows = [{"x": float(i)} for i in range(10)]
    ds = Dataset(rows, list(range(10)) )
    folds = ds.split_folds(5, rng=np.random.default_rng(1))
    assert len(folds) == 5
    test_labels = sorted(
        label for _train, test in folds for label in test.labels
    )
    assert test_labels == list(range(10))
    for train, test in folds:
        assert len(train) + len(test) == 10


def test_split_folds_too_few_rows_raises():
    ds = Dataset([{"x": 1.0}], [0])
    with pytest.raises(ValueError):
        ds.split_folds(2)


def test_intervals_label_and_upper_bound():
    intervals = MemoryIntervals(interval_mb=16, max_mb=2048)
    assert intervals.n_classes == 128
    assert intervals.label(1.0) == 0
    assert intervals.label(16.0) == 0
    assert intervals.label(16.1) == 1
    assert intervals.upper_bound_mb(0) == 16.0
    assert intervals.upper_bound_mb(127) == 2048.0


def test_intervals_clamp_out_of_range():
    intervals = MemoryIntervals(interval_mb=16, max_mb=2048)
    assert intervals.label(99999.0) == 127
    assert intervals.label(0.0) == 0
    assert intervals.label(-5.0) == 0


def test_intervals_bump_saturates():
    intervals = MemoryIntervals(interval_mb=16, max_mb=2048)
    assert intervals.bump(5) == 6
    assert intervals.bump(127) == 127


def test_intervals_invalid_params():
    with pytest.raises(ValueError):
        MemoryIntervals(interval_mb=0)
    with pytest.raises(ValueError):
        MemoryIntervals(interval_mb=16, max_mb=0)


@given(st.floats(min_value=0.001, max_value=2048.0))
def test_interval_upper_bound_always_covers_value(memory_mb):
    intervals = MemoryIntervals(interval_mb=16, max_mb=2048)
    label = intervals.label(memory_mb)
    assert intervals.upper_bound_mb(label) >= memory_mb - 1e-9
    # Tight: the next-lower interval would not cover it.
    if label > 0:
        assert intervals.upper_bound_mb(label - 1) < memory_mb


@given(
    st.floats(min_value=1.0, max_value=64.0),
    st.floats(min_value=64.0, max_value=4096.0),
)
def test_interval_roundtrip_consistency(interval_mb, max_mb):
    intervals = MemoryIntervals(interval_mb=interval_mb, max_mb=max_mb)
    for label in range(0, intervals.n_classes, max(1, intervals.n_classes // 7)):
        upper = intervals.upper_bound_mb(label)
        assert intervals.label(upper) == min(label, intervals.n_classes - 1)
