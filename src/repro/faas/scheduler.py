"""Load-balancer policies: choosing the worker node for an invocation."""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import List, Optional

from repro.faas.invoker import Invoker
from repro.faas.records import InvocationRequest


@lru_cache(maxsize=65536)
def home_index(tenant: str, function: str, n_nodes: int) -> int:
    """OpenWhisk's home-worker hash over (tenant, function).

    Memoized: the scheduler asks once per invocation and a deployment
    has few distinct (tenant, function, node count) triples.
    """
    digest = hashlib.sha1(f"{tenant}/{function}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % n_nodes


class Scheduler:
    """Strategy interface for node selection."""

    def choose_node(
        self,
        request: InvocationRequest,
        memory_mb: float,
        invokers: List[Invoker],
        exclude: Optional[set] = None,
    ) -> Optional[Invoker]:
        raise NotImplementedError


class HomeWorkerScheduler(Scheduler):
    """OpenWhisk's native policy (§2.1).

    Requests go to the *home* worker (hash of tenant and function id)
    when it has an idle warm sandbox or room for a new one; otherwise
    the search proceeds round-robin from the home index; as a last
    resort the node with the most free memory is picked.
    """

    def choose_node(
        self,
        request: InvocationRequest,
        memory_mb: float,
        invokers: List[Invoker],
        exclude: Optional[set] = None,
    ) -> Optional[Invoker]:
        if exclude:
            invokers = [inv for inv in invokers if inv.node_id not in exclude]
        n_nodes = len(invokers)
        if not n_nodes:
            return None
        start = home_index(request.tenant, request.function, n_nodes)
        # Round-robin from the home index without building the rotated
        # list: indices start-n .. start-1 wrap through the negatives,
        # i.e. home, home+1, ..., last, 0, ..., home-1.
        order = range(start - n_nodes, start)
        # First pass: a node with an idle warm sandbox (avoid cold start).
        key = request.key
        for i in order:
            if invokers[i].has_idle_sandbox(key):
                return invokers[i]
        # Second pass: a node with room for a fresh sandbox.
        for i in order:
            if invokers[i].available_mb >= memory_mb:
                return invokers[i]
        # Last resort: the node with the most free memory (its
        # ensure-capacity hook may still make room).
        return max(invokers, key=lambda inv: inv.available_mb)
