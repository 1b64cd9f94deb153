"""The paper's harvested cache as a backend.

:class:`repro.kvcache.cluster.CacheCluster` already has every data-plane,
capacity, fault and statistics member of the backend contract, so the
``ofc`` backend *is* the cluster: this subclass adds only what a
deployment brings — the configured quota cap, the per-node
:class:`repro.core.cache_agent.CacheAgent` loops and the cost level.

Cost model: the memory is *harvested* — priced at the residual
``HARVESTED_GB_S`` rate — and the level tracks the cluster's live
capacity through its ``on_resize`` accounting hook.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.cache.backend import CacheBackend
from repro.core.cache_agent import CacheAgent
from repro.core.config import OFCConfig
from repro.kvcache.cluster import CacheCluster
from repro.kvcache.objects import CacheObject
from repro.sim.kernel import Kernel
from repro.sim.latency import MB


class OFCCacheBackend(CacheCluster, CacheBackend):
    """OFC's opportunistic RAMCloud-style cluster, deployed.

    ``CacheBackend`` is the second base for ``cost``/``cost_snapshot``,
    the ``attach`` wiring and ``node_ids``/``config``.
    """

    name = "ofc"

    def __init__(
        self,
        kernel: Kernel,
        node_ids: List[str],
        config: Optional[OFCConfig] = None,
        rng=None,
        max_object_size: Optional[int] = None,
    ):
        CacheBackend.__init__(
            self, kernel, node_ids, config=config, rng=rng,
            max_object_size=max_object_size,
        )
        CacheCluster.__init__(
            self,
            kernel,
            self.node_ids,
            replication_factor=self.config.replication_factor,
            rng=rng,
            max_object_size=self.max_object_size,
        )
        if self.config.cache_cap_mb is not None:
            self.quota_cap_bytes = int(
                self.config.cache_cap_mb * MB
            ) * len(self.node_ids)
        self.on_resize = self._on_resize
        self.agents: Dict[str, CacheAgent] = {}

    def attach(
        self, platform=None, persistor=None, metrics=None, tenancy=None
    ) -> None:
        super().attach(
            platform=platform, persistor=persistor, metrics=metrics,
            tenancy=tenancy,
        )
        if platform is not None and persistor is not None:
            self.agents = {
                invoker.node_id: CacheAgent(
                    self.kernel,
                    invoker,
                    self,
                    persistor,
                    config=self.config,
                    metrics=metrics,
                    tenancy=tenancy,
                )
                for invoker in platform.invokers
            }

    def start(self) -> None:
        for agent in self.agents.values():
            agent.start()

    def objects(self) -> Iterator[Tuple[str, CacheObject]]:
        # Lazy per-server snapshots, in coordinator order.
        for server in self.coordinator.servers.values():
            for obj in server.master_objects():
                yield server.server_id, obj

    def _on_resize(self, now: float, total_capacity: int) -> None:
        self.cost.set_memory(harvested_mb=total_capacity / MB)
