"""One features dict per invocation, shared and never written after
the sizing decision.

The predictor builds an invocation's features dict once; the record,
the trainer's ``TrainingSample`` and every ``Dataset`` fitted on the
curated set hold that same dict instead of a copy each.  Sharing is
only sound while nothing writes the dict after the sizing decision, so
a short OFC FaaSLoad run snapshots every dict as the decision is made
and, once the run is over, requires each kept sample to hold its
record's dict and each dict to still equal its snapshot.
"""

from __future__ import annotations

from repro.bench.envs import build_ofc_env
from repro.ml.dataset import Dataset
from repro.workloads.faasload import FaaSLoad, TenantSpec


def test_features_dicts_are_shared_and_never_written():
    ofc = build_ofc_env(seed=0)
    platform = ofc.platform
    policy = platform.sizing_policy
    decided = {}  # id(features) -> (features, snapshot at the decision)

    def snapshotting_policy(request, spec, record):
        decision = yield from policy(request, spec, record)
        features = decision.features
        decided[id(features)] = (features, dict(features))
        return decision

    platform.sizing_policy = snapshotting_policy
    keys = set()

    def on_completion(record):
        # The record holds the decision's dict, not a copy of it.
        features, _snapshot = decided[id(record.features)]
        assert record.features is features
        keys.add(record.request.key)

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

    samples = [
        sample
        for key in sorted(keys)
        for sample in ofc.trainer.models_for(key).samples
    ]
    assert len(samples) > 100
    # Each sample holds one invocation's own dict ...
    assert len({id(sample.features) for sample in samples}) == len(samples)
    for sample in samples:
        features, snapshot = decided[id(sample.features)]
        assert sample.features is features
        # ... and nothing wrote it after the sizing decision.
        assert features == snapshot

    rows = [sample.features for sample in samples]
    dataset = Dataset(rows, [sample.memory_label for sample in samples])
    assert all(dataset.rows[i] is rows[i] for i in range(len(rows)))
