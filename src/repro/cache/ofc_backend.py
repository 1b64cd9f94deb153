"""The paper's harvested cache, re-homed behind the backend seam.

A pure pass-through over :class:`repro.kvcache.cluster.CacheCluster`
plus the per-node :class:`repro.core.cache_agent.CacheAgent` loops.
Every data-plane method returns the cluster's generator unchanged, so a
deployment on this backend is bit-identical to the pre-seam build (the
bench gate runs over exactly this path).

Cost model: the memory is *harvested* — priced at the residual
``HARVESTED_GB_S`` rate — and the level tracks the cluster's live
capacity through the cluster's ``on_resize`` accounting hook.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Iterator, List, Optional, Tuple

from repro.cache.backend import CacheBackend
from repro.core.cache_agent import CacheAgent
from repro.core.config import OFCConfig
from repro.kvcache.cluster import CacheCluster
from repro.kvcache.objects import CacheObject
from repro.sim.kernel import Kernel
from repro.sim.latency import MB


class OFCCacheBackend(CacheBackend):
    """OFC's opportunistic RAMCloud-style cluster as a backend."""

    name = "ofc"

    def __init__(
        self,
        kernel: Kernel,
        node_ids: List[str],
        config: Optional[OFCConfig] = None,
        rng=None,
        max_object_size: Optional[int] = None,
    ):
        config = config or OFCConfig()
        # The cluster must exist before super().__init__: the base
        # class assigns the hook attributes, which this subclass
        # forwards to the cluster via properties.
        self.cluster = CacheCluster(
            kernel,
            node_ids,
            replication_factor=config.replication_factor,
            rng=rng,
            max_object_size=(
                max_object_size
                if max_object_size is not None
                else config.max_cacheable_bytes
            ),
        )
        super().__init__(
            kernel, node_ids, config=config, rng=rng,
            max_object_size=max_object_size,
        )
        if config.cache_cap_mb is not None:
            self.cluster.quota_cap_bytes = int(
                config.cache_cap_mb * MB
            ) * len(self.node_ids)
        self.cluster.on_resize = self._on_resize
        self.agents: Dict[str, CacheAgent] = {}

    # -- hook forwarding (the cluster is the single source of truth) ---------

    @property
    def faults(self):
        return self.cluster.faults

    @faults.setter
    def faults(self, state) -> None:
        self.cluster.faults = state

    @property
    def on_object_admitted(self):
        return self.cluster.on_object_admitted

    @on_object_admitted.setter
    def on_object_admitted(self, fn) -> None:
        self.cluster.on_object_admitted = fn

    @property
    def on_object_removed(self):
        return self.cluster.on_object_removed

    @on_object_removed.setter
    def on_object_removed(self, fn) -> None:
        self.cluster.on_object_removed = fn

    # -- lifecycle -----------------------------------------------------------

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
                    self.cluster,
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

    # -- data plane (zero-overhead delegation: return the generator) --------

    def put(
        self,
        key: str,
        value: Any,
        size: int,
        caller: str,
        flags: Optional[Dict[str, Any]] = None,
    ) -> Generator[Any, Any, str]:
        return self.cluster.put(key, value, size, caller, flags=flags)

    def get(self, key: str, caller: str) -> Generator[Any, Any, CacheObject]:
        return self.cluster.get(key, caller)

    def delete(self, key: str, caller: str) -> Generator[Any, Any, None]:
        return self.cluster.delete(key, caller)

    def peek(self, key: str) -> Optional[CacheObject]:
        return self.cluster.peek(key)

    def set_flags(self, key: str, **flags: Any) -> None:
        self.cluster.set_flags(key, **flags)

    def contains(self, key: str) -> bool:
        return self.cluster.contains(key)

    def location_of(self, key: str) -> Optional[str]:
        return self.cluster.location_of(key)

    def objects(self) -> Iterator[Tuple[str, CacheObject]]:
        # Lazy per-server snapshots, in coordinator order: matches the
        # pre-seam pipeline-cleanup iteration exactly (bit-identity).
        for server in self.cluster.coordinator.servers.values():
            for obj in server.master_objects():
                yield server.server_id, obj

    # -- capacity ------------------------------------------------------------

    @property
    def total_capacity(self) -> int:
        return self.cluster.total_capacity

    @property
    def total_used(self) -> int:
        return self.cluster.total_used

    @property
    def quota_capacity(self) -> int:
        return self.cluster.quota_capacity

    # -- faults --------------------------------------------------------------

    def crash(self, node_id: str) -> None:
        self.cluster.crash(node_id)

    def restart(self, node_id: str) -> int:
        return self.cluster.restart(node_id)

    def recover(self, node_id: str) -> Generator[Any, Any, int]:
        return self.cluster.recover(node_id)

    def repair(self) -> Generator[Any, Any, int]:
        return self.cluster.repair()

    # -- observability -------------------------------------------------------

    def stats_snapshot(self) -> Dict[str, Any]:
        return self.cluster.stats_snapshot()

    def _on_resize(self, now: float, total_capacity: int) -> None:
        self.cost.set_memory(harvested_mb=total_capacity / MB)
