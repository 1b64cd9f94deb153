"""The paper's harvested cache as a backend.

:class:`repro.kvcache.cluster.CacheCluster` already implements the whole
backend contract, so the ``ofc`` backend *is* the cluster (with its
default replication factor, two backups): this subclass adds only what
a deployment brings — the configured quota cap and the cost level.
The per-node
:class:`repro.core.cache_agent.CacheAgent` loops are built and started
by :class:`repro.core.ofc.OFCPlatform`.

Cost model: the memory is *harvested* — priced at the residual
``HARVESTED_GB_S`` rate — and the level tracks the cluster's live
capacity through its ``on_resize`` accounting hook.
"""

from __future__ import annotations

from typing import List

from repro.core.config import OFCConfig
from repro.kvcache.cluster import CacheCluster
from repro.sim.kernel import Kernel
from repro.sim.latency import MB


class OFCCacheBackend(CacheCluster):
    """OFC's opportunistic RAMCloud-style cluster, deployed."""

    name = "ofc"

    def __init__(
        self,
        kernel: Kernel,
        node_ids: List[str],
        config: OFCConfig,
        max_object_size: int,
        rng=None,
    ):
        super().__init__(kernel, node_ids, rng=rng, max_object_size=max_object_size)
        if config.cache_cap_mb is not None:
            self.quota_cap_bytes = int(config.cache_cap_mb * MB) * len(
                self.node_ids
            )
        self.on_resize = self._on_resize

    def _on_resize(self, now: float, total_capacity: int) -> None:
        self.cost.set_memory(harvested_mb=total_capacity / MB)
