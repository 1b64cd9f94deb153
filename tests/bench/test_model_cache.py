"""The shared warm-model cache: warm cells must reproduce cold cells
bit-for-bit, keys must cover every input, and the runner initializer
must carry the cache into workers.
"""

from __future__ import annotations

import pickle

import pytest

from repro.bench import model_cache
from repro.bench.macro import prewarm_macro_models, run_macro
from repro.bench.runner import run_cells
from repro.core.config import OFCConfig
from repro.storage.latency_profiles import SWIFT_PROFILE
from repro.workloads.faasload import TenantProfile
from repro.workloads.functions import get_function_model


@pytest.fixture(autouse=True)
def _fresh_cache():
    model_cache.clear()
    yield
    model_cache.clear()


def _short_macro():
    return run_macro("ofc", TenantProfile.NORMAL, duration_s=20.0, seed=0)


def test_warm_macro_matches_cold_exactly():
    cold = _short_macro()
    first = model_cache.stats()
    assert first["stores"] > 0
    assert first["hits"] == 0
    warm = _short_macro()
    second = model_cache.stats()
    assert second["hits"] >= first["stores"]
    # The warm run is the same simulation, not an approximation.
    assert warm.hit_ratio == cold.hit_ratio
    assert warm.total_exec_s == cold.total_exec_s
    assert warm.completed == cold.completed
    assert warm.table2 == cold.table2


def test_disabled_cache_stores_nothing():
    with model_cache.disabled():
        _short_macro()
    stats = model_cache.stats()
    assert stats["stores"] == 0 and stats["entries"] == 0


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
        config=OFCConfig(),
        profile=SWIFT_PROFILE,
    )
    key = model_cache.pretrain_key(**base)
    assert key == model_cache.pretrain_key(**base)  # deterministic
    for change in (
        {"tenant": "t1"},
        {"n_samples": 31},
        {"seed": 1},
        {"descriptors": [_Descriptor(11)]},
        {"config": OFCConfig(bump_intervals=2)},
    ):
        assert model_cache.pretrain_key(**{**base, **change}) != key, change


def test_store_snapshots_against_later_mutation():
    model_cache.store("k", {"models": [1, 2, 3]})
    entry = model_cache.lookup("k")
    entry["models"].append(4)  # cell-local mutation
    assert model_cache.lookup("k") == {"models": [1, 2, 3]}


def test_prewarm_blob_round_trip():
    blob = prewarm_macro_models(TenantProfile.NORMAL, seed=0)
    stored = model_cache.stats()["stores"]
    assert stored > 0
    model_cache.clear()
    model_cache.preload_blob(blob)
    assert model_cache.stats()["entries"] == stored
    # A macro cell on the preloaded cache is pure hits, no stores.
    _short_macro()
    stats = model_cache.stats()
    assert stats["hits"] >= stored
    assert stats["stores"] == 0


def _cache_entry_count(_cell) -> int:
    """Runner cell: how many warm entries this process sees."""
    return model_cache.stats()["entries"]


def test_runner_initializer_preloads_workers():
    model_cache.store("a", [1])
    model_cache.store("b", [2])
    blob = model_cache.export_blob()
    outcomes = run_cells(
        _cache_entry_count,
        [(), ()],
        workers=2,
        initializer=model_cache.preload_blob,
        initargs=(blob,),
    )
    assert [o.result for o in outcomes] == [2, 2]


def test_blob_is_picklable_payload():
    model_cache.store("k", {"x": 1})
    blob = model_cache.export_blob()
    assert isinstance(blob, bytes)
    assert pickle.loads(blob)  # decodable mapping
