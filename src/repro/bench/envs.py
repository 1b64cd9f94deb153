"""Deployment builders for the three compared configurations (§7.2):

* **OWK-Swift** — stock platform, all data in the Swift-profile RSDS
  (worst-case data access);
* **OWK-Redis** — stock platform, all data in a Redis-profile IMOC
  (best-case data access);
* **OFC** — the full system.

Every builder restarts the process-global id counters
(:func:`repro.faas.reset_id_counters`) first: request ids seed the
hidden footprint noise and pipeline ids end up in object keys, so a
deployment must not depend on what ran before it in the process (or on
the ``--workers`` fan-out, whose forked workers inherit the counters).
Each builder imports the system it builds, so a stock deployment loads
no OFC core, no RAMCloud cluster and no learner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, TYPE_CHECKING

import numpy as np

from repro.faas import reset_id_counters
from repro.faas.platform import FaaSPlatform, PlatformConfig
from repro.faas.records import skip_request_ids
from repro.sim.kernel import Kernel
from repro.sim.latency import LatencyProfile, REDIS_PROFILE, SWIFT_PROFILE
from repro.sim.rng import RngRegistry
from repro.storage.object_store import ObjectStore

if TYPE_CHECKING:
    from repro.core.config import OFCConfig
    from repro.core.ofc import OFCPlatform

#: Node memory used across benches: modest so memory pressure is real.
DEFAULT_NODE_MB = 16384.0
DEFAULT_NODES = 4


@dataclass
class BaselineEnv:
    """A stock-OpenWhisk deployment over one storage backend."""

    label: str
    kernel: Kernel
    store: ObjectStore
    platform: FaaSPlatform

    def seed_buckets(self) -> None:
        for bucket in ("inputs", "outputs"):
            self.store.ensure_bucket(bucket)


def _platform_config(
    nodes: int = DEFAULT_NODES, node_mb: float = DEFAULT_NODE_MB
) -> PlatformConfig:
    return PlatformConfig(
        node_ids=[f"w{i}" for i in range(nodes)], node_memory_mb=node_mb
    )


def _build_baseline(
    label: str,
    profile: LatencyProfile,
    nodes: int,
    node_mb: float,
    seed: int,
) -> BaselineEnv:
    reset_id_counters()
    kernel = Kernel()
    rng = RngRegistry(seed)
    # Latency jitter only: cursors over pre-drawn standard normals, as
    # in OFCPlatform (see repro.sim.rng).
    store = ObjectStore(kernel, profile=profile, rng=rng.batched_stream("rsds"))
    platform = FaaSPlatform(
        kernel,
        store,
        _platform_config(nodes, node_mb),
        rng=rng.batched_stream("platform"),
    )
    env = BaselineEnv(label=label, kernel=kernel, store=store, platform=platform)
    env.seed_buckets()
    return env


def build_owk_swift_env(
    nodes: int = DEFAULT_NODES, node_mb: float = DEFAULT_NODE_MB, seed: int = 0
) -> BaselineEnv:
    """Stock OpenWhisk with the Swift-profile RSDS."""
    return _build_baseline("OWK-Swift", SWIFT_PROFILE, nodes, node_mb, seed)


def build_owk_redis_env(
    nodes: int = DEFAULT_NODES, node_mb: float = DEFAULT_NODE_MB, seed: int = 0
) -> BaselineEnv:
    """Stock OpenWhisk with every object in a Redis-profile IMOC."""
    return _build_baseline("OWK-Redis", REDIS_PROFILE, nodes, node_mb, seed)


def build_ofc_env(
    nodes: int = DEFAULT_NODES,
    node_mb: float = DEFAULT_NODE_MB,
    seed: int = 0,
    config: Optional[OFCConfig] = None,
    keepalive_s: Optional[float] = None,
) -> OFCPlatform:
    """The full OFC deployment (started, buckets created).

    ``keepalive_s`` overrides the sandbox keep-alive window; the
    multi-tenant bench shortens it so thousands of one-off tenants do
    not pin idle sandboxes for the default ten minutes.
    """
    from repro.core.ofc import OFCPlatform

    reset_id_counters()
    platform_config = _platform_config(nodes, node_mb)
    if keepalive_s is not None:
        platform_config.keepalive_s = keepalive_s
    system = OFCPlatform(
        config=config,
        platform_config=platform_config,
        seed=seed,
    )
    for bucket in ("inputs", "outputs"):
        system.store.ensure_bucket(bucket)
    system.start()
    return system


def pretrain_function(
    ofc: OFCPlatform,
    model,
    descriptors: List,
    tenant: str = "t0",
    n_samples: int = 150,
    seed: int = 42,
) -> None:
    """Mature a function's models offline (the paper ships offline
    training data and scripts; this is the equivalent shortcut for
    benches that need mature models from the first invocation).

    Synthesises ``n_samples`` training samples from the hidden ground
    truth and hands them to :meth:`ModelTrainer.ingest`.  Results are
    memoized in the process (:mod:`repro.bench.model_cache`): a
    deployment whose (function, tenant, descriptors, sample count,
    seed) match a previous pretraining adopts the cached state instead.
    Either way ``n_samples`` request ids are skipped, one per
    synthesised invocation, so the ids (which seed the hidden footprint
    noise of every later invocation) do not depend on the memo.
    """
    from repro.bench import model_cache
    from repro.bench.datasets import synthetic_sample

    skip_request_ids(n_samples)
    cache_key = model_cache.pretrain_key(
        model.name, tenant, n_samples, seed, descriptors
    )
    cached = model_cache.lookup(cache_key)
    if cached is not None:
        ofc.trainer.adopt_models(cached)
        return

    rng = np.random.default_rng(seed)

    def samples():
        for _ in range(n_samples):
            media = descriptors[int(rng.integers(0, len(descriptors)))]
            args = model.sample_args(rng)
            yield synthetic_sample(ofc.trainer, model, media, args, rng)

    models = ofc.trainer.ingest(f"{tenant}/{model.name}", samples())
    model_cache.store(cache_key, models)
