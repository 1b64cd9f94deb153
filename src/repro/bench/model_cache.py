"""Shared warm-model cache for sweep pretraining (ROADMAP open item).

Every macro-style sweep cell starts by maturing each tenant's models
offline (:func:`repro.bench.envs.pretrain_function`).  The feeding loop
is deterministic in its inputs — function model, tenant, descriptor
set, sample count, seed, OFC config and RSDS latency profile — so its
result can be computed once and reused by every cell that shares those
inputs (the Faa$T observation: per-application cache state should be
cheap to keep warm and share across instances).

The cache maps a content key to a *pickled* :class:`FunctionModels`
snapshot.  Serializing at store time and deserializing a fresh copy on
every hit keeps cells isolated: a cell that keeps training online never
mutates another cell's starting state.  Hits restore bit-identical
trainer state, so warm and cold cells produce identical results
(``tests/bench/test_model_cache.py`` asserts identical macro hit
ratios).

Cross-process sharing: :func:`export_blob` snapshots the parent's cache
and :func:`preload_blob` is a ``ProcessPoolExecutor`` initializer that
installs it in each worker (wired through ``repro.bench.runner``).

Invalidation: the key covers everything the pretraining result depends
on, so stale hits cannot happen across configs/seeds; ``clear()``
handles code changes to the trainer/tree themselves within one process.
"""

from __future__ import annotations

import hashlib
import pickle
from contextlib import contextmanager
from dataclasses import asdict
from typing import Any, Dict, Optional, Sequence

_CACHE: Dict[str, bytes] = {}
_STATS = {"hits": 0, "misses": 0, "stores": 0}
_ENABLED = True


def enabled() -> bool:
    return _ENABLED


@contextmanager
def disabled():
    """Temporarily bypass the cache (the cold path, for comparisons)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


def clear() -> None:
    _CACHE.clear()
    _STATS["hits"] = _STATS["misses"] = _STATS["stores"] = 0


def stats() -> Dict[str, int]:
    return dict(_STATS, entries=len(_CACHE))


def pretrain_key(
    model_name: str,
    tenant: str,
    n_samples: int,
    seed: int,
    descriptors: Sequence[Any],
    config: Any,
    profile: Any,
) -> str:
    """Content hash of every input the pretraining result depends on:
    (function spec, input descriptor ensemble, sample count, seed,
    OFC config, RSDS latency profile)."""
    descriptor_print = tuple(
        (d.size, tuple(sorted(d.features().items()))) for d in descriptors
    )
    payload = repr(
        (
            model_name,
            tenant,
            int(n_samples),
            int(seed),
            descriptor_print,
            tuple(sorted(asdict(config).items())),
            profile.name,
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def lookup(key: str) -> Optional[Any]:
    """A fresh deserialized copy of the cached state, or None."""
    blob = _CACHE.get(key)
    if blob is None:
        _STATS["misses"] += 1
        return None
    _STATS["hits"] += 1
    return pickle.loads(blob)


def store(key: str, models: Any) -> None:
    """Snapshot ``models`` now (later online training won't leak in)."""
    _CACHE[key] = pickle.dumps(models, protocol=pickle.HIGHEST_PROTOCOL)
    _STATS["stores"] += 1


def export_blob() -> bytes:
    """The whole cache as one picklable payload for worker preloading."""
    return pickle.dumps(_CACHE, protocol=pickle.HIGHEST_PROTOCOL)


def preload_blob(blob: bytes) -> None:
    """ProcessPoolExecutor initializer: install a parent's cache
    snapshot in this process (idempotent in the serial path)."""
    _CACHE.update(pickle.loads(blob))
