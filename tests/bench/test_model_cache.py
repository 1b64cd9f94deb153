"""The in-process pretraining memo: warm runs must reproduce cold runs
bit-for-bit, and keys must cover every input.
"""

from __future__ import annotations

import pytest

from repro.bench import model_cache
from repro.bench.macro import run_macro
from repro.workloads.faasload import FaaSLoad, TenantProfile
from repro.workloads.functions import get_function_model


@pytest.fixture(autouse=True)
def _fresh_cache():
    model_cache.clear()
    yield
    model_cache.clear()


def _short_macro():
    return run_macro("ofc", TenantProfile.NORMAL, duration_s=300.0, seed=0)


def test_warm_macro_matches_cold_exactly(monkeypatch):
    stored, records = [], []
    store, run = model_cache.store, FaaSLoad.run

    def counting_store(key, models):
        stored.append(key)
        store(key, models)

    def recording_run(self, duration_s):
        landed = []
        self.platform.completion_listeners.append(
            lambda r: landed.append(
                (r.request.request_id, r.peak_memory_mb, r.finished_at)
            )
        )
        stats = run(self, duration_s)
        records.append(landed)
        return stats

    monkeypatch.setattr(model_cache, "store", counting_store)
    monkeypatch.setattr(FaaSLoad, "run", recording_run)
    cold = _short_macro()
    assert stored  # the cold run pretrained and memoized
    stored.clear()
    warm = _short_macro()
    assert not stored  # every tenant hit the memo
    # The warm run is the same simulation, not an approximation: every
    # invocation draws the same request id, hence the same hidden
    # footprint noise.
    cold_records, warm_records = records
    assert cold_records and warm_records == cold_records
    assert warm.hit_ratio == cold.hit_ratio
    assert warm.total_exec_s == cold.total_exec_s
    assert warm.completed == cold.completed
    assert warm.table2 == cold.table2


def test_key_covers_inputs():
    model = get_function_model("wand_blur")

    class _Descriptor:
        def __init__(self, size):
            self.size = size

        def features(self):
            return {"in_size": float(self.size)}

    base = dict(
        model_name=model.name,
        tenant="t0",
        n_samples=30,
        seed=0,
        descriptors=[_Descriptor(10)],
    )
    key = model_cache.pretrain_key(**base)
    assert key == model_cache.pretrain_key(**base)  # deterministic
    for change in (
        {"tenant": "t1"},
        {"n_samples": 31},
        {"seed": 1},
        {"descriptors": [_Descriptor(11)]},
    ):
        assert model_cache.pretrain_key(**{**base, **change}) != key, change


def test_store_snapshots_against_later_mutation():
    model_cache.store("k", {"models": [1, 2, 3]})
    entry = model_cache.lookup("k")
    entry["models"].append(4)  # cell-local mutation
    assert model_cache.lookup("k") == {"models": [1, 2, 3]}
