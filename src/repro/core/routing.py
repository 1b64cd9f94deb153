"""OFC's locality-aware request routing (§6.5)."""

from __future__ import annotations

from typing import List, Optional

from repro.faas.invoker import Invoker
from repro.faas.records import InvocationRequest
from repro.faas.scheduler import Scheduler


class OFCScheduler(Scheduler):
    """Modified load-balancer policy.

    A request goes to an idle warm sandbox when one exists (ranked by
    the §6.5 criteria: memory-limit distance to the prediction, node
    free memory, data locality, recency); otherwise a fresh sandbox is
    created, preferably on the node holding the master cached copy of
    the request's input object.

    ``cluster`` is any :class:`~repro.kvcache.backend.CacheBackend`
    (only ``location_of`` is used).
    """

    def __init__(self, cluster):
        self.cluster = cluster

    def _locality_node(self, request: InvocationRequest) -> Optional[str]:
        if not request.input_ref:
            return None
        return self.cluster.location_of(request.input_ref)

    def choose_node(
        self,
        request: InvocationRequest,
        memory_mb: float,
        invokers: List[Invoker],
        exclude: Optional[set] = None,
    ) -> Optional[Invoker]:
        exclude = exclude or set()
        candidates = [inv for inv in invokers if inv.node_id not in exclude]
        if not candidates:
            return None
        locality = self._locality_node(request)

        # 1. Idle warm sandboxes anywhere: rank by the §6.5 criteria.
        ranked = []
        for invoker in candidates:
            sandbox = invoker.find_sandbox(request.key, preferred_mb=memory_mb)
            if sandbox is None:
                continue
            ranked.append(
                (
                    abs(sandbox.memory_limit_mb - memory_mb),  # (i)
                    -invoker.available_mb,  # (ii)
                    0 if invoker.node_id == locality else 1,  # (iii)
                    -sandbox.last_used_at,  # (iv)
                    invoker,
                )
            )
        if ranked:
            ranked.sort(key=lambda item: item[:4])
            return ranked[0][-1]

        # 2. No warm sandbox: create one, preferably where the master
        # cached copy of the input lives.
        if locality is not None:
            for invoker in candidates:
                if invoker.node_id == locality and (
                    invoker.available_mb >= memory_mb
                    or invoker.cache_reserved_mb >= memory_mb
                ):
                    return invoker

        # 3. Fall back to the node with the most reclaimable memory
        # (free + cache, since the CacheAgent can hand cache memory back).
        return max(
            candidates,
            key=lambda inv: inv.available_mb + inv.cache_reserved_mb,
        )
