"""In-process memo of sweep pretraining.

Every macro-style run starts by maturing each tenant's models offline
(:func:`repro.bench.envs.pretrain_function`, which hands synthetic
samples to :meth:`ModelTrainer.ingest`).  That is deterministic in its
inputs — function model, tenant, descriptor set, sample count and
seed — so its result can be computed once and reused by every
later run in the process that shares those inputs.

The memo maps a content key to a *pickled* :class:`FunctionModels`
snapshot.  Serializing at store time and deserializing a fresh copy on
every hit keeps runs isolated: a run that keeps training online never
mutates another run's starting state.  Hits restore bit-identical
trainer state, and hits and misses skip the same request ids, so warm
and cold runs produce identical results
(``tests/bench/test_model_cache.py`` asserts identical macro records).

Each process keeps its own memo: pool workers start from whatever the
parent held when they forked and fill in the rest themselves.

Invalidation: the key covers everything the pretraining result depends
on, so stale hits cannot happen across inputs/seeds.  It holds no
:class:`~repro.core.config.OFCConfig`: the trainer reads no field of
it (its settings are :mod:`repro.core.trainer` constants).  ``clear()``
handles code changes to the trainer/tree themselves within one process,
and ``perf/cells.py`` calls it before every repeat so that cold
pretraining is part of the set-up it measures.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Any, Dict, Optional, Sequence

_CACHE: Dict[str, bytes] = {}


def clear() -> None:
    _CACHE.clear()


def pretrain_key(
    model_name: str,
    tenant: str,
    n_samples: int,
    seed: int,
    descriptors: Sequence[Any],
) -> str:
    """Content hash of every input the pretraining result depends on:
    (function spec, input descriptor ensemble, sample count, seed)."""
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
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def lookup(key: str) -> Optional[Any]:
    """A fresh deserialized copy of the cached state, or None."""
    blob = _CACHE.get(key)
    return None if blob is None else pickle.loads(blob)


def store(key: str, models: Any) -> None:
    """Snapshot ``models`` now (later online training won't leak in)."""
    _CACHE[key] = pickle.dumps(models, protocol=pickle.HIGHEST_PROTOCOL)
