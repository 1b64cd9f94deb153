"""Equal feature rows are one dict, never written after the sizing
decision.

The predictor builds an invocation's row through the one builder,
which interns it: every invocation with the same features (the same
input object version and arguments, or another input with equal
metadata) gets the same read-only dict, and the record, the trainer's
``TrainingSample`` and every ``Dataset`` fitted on the curated set hold
that dict instead of a copy each.  Sharing is only sound while nothing
writes a row after the sizing decision, so a short OFC FaaSLoad run
snapshots the row at every decision and, once the run is over,
requires each kept sample to hold its record's row, equal content to
be one object, and each row to still equal every snapshot taken of it.
"""

from __future__ import annotations

import pytest

from repro.bench.envs import build_ofc_env
from repro.ml.dataset import Dataset
from repro.workloads.faasload import FaaSLoad, TenantSpec


def content(row):
    """A row's type-exact content: names in order, types and values."""
    return tuple((name, type(value), repr(value)) for name, value in row.items())


def test_features_dicts_are_shared_and_never_written():
    ofc = build_ofc_env(seed=0)
    platform = ofc.platform
    policy = platform.sizing_policy
    decided = {}  # id(row) -> (row, snapshots taken at its decisions)

    def snapshotting_policy(request, spec, record):
        decision = yield from policy(request, spec, record)
        row = decision.features
        decided.setdefault(id(row), (row, []))[1].append(dict(row))
        return decision

    platform.sizing_policy = snapshotting_policy
    keys = set()
    records = []

    def on_completion(record):
        # The record holds the decision's row, not a copy of it.
        row, _snapshots = decided[id(record.features)]
        assert record.features is row
        keys.add(record.request.key)
        records.append(record)

    platform.completion_listeners.append(on_completion)
    load = FaaSLoad(ofc.kernel, platform, ofc.store, truth_seed=0)
    load.prepare(
        [
            TenantSpec(tenant, tenant, mean_interval_s=2.0, n_inputs=3)
            for tenant in ("wand_sepia", "wand_blur")
        ]
    )
    stats = load.run(240.0)
    assert stats.completed > 150

    # Equal content is one dict, over records and decisions alike ...
    by_content = {}
    for record in records:
        assert by_content.setdefault(content(record.features), record.features) is (
            record.features
        )
    # (wand_blur draws sigma from five values, wand_sepia a continuous
    # threshold: only the first repeats its rows.)
    assert len(by_content) < 0.75 * len(records)

    samples = [
        sample
        for key in sorted(keys)
        for sample in ofc.trainer.models_for(key).samples
    ]
    assert len(samples) > 100
    for sample in samples:
        # ... each sample holds a record's row ...
        row, snapshots = decided[id(sample.features)]
        assert sample.features is row
        assert by_content[content(row)] is row
        # ... and nothing wrote it after any of its sizing decisions.
        assert all(
            content(row) == content(snapshot) for snapshot in snapshots
        )
        with pytest.raises(TypeError):
            row["in_size"] = 0.0
        with pytest.raises(TypeError):
            row.update(in_size=0.0)

    rows = [sample.features for sample in samples]
    dataset = Dataset(rows, [sample.memory_label for sample in samples])
    assert all(dataset.rows[i] is rows[i] for i in range(len(rows)))
