"""Pluggable cache-architecture backends for the OFC platform.

``OFCConfig.cache_backend`` selects the architecture behind the data
plane; :func:`make_backend` builds it.  The contract every backend
implements, :class:`CacheBackend`, lives in :mod:`repro.kvcache.backend`
(where the cluster, which ``repro.core`` imports, can derive from it).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type

from repro.cache.faast import FaaSTBackend
from repro.cache.infinicache import InfiniCacheBackend
from repro.cache.ofc_backend import OFCCacheBackend
from repro.core.config import OFCConfig
from repro.kvcache.backend import CacheBackend, CostMeter
from repro.sim.kernel import Kernel

BACKENDS: Dict[str, Type[CacheBackend]] = {
    OFCCacheBackend.name: OFCCacheBackend,
    FaaSTBackend.name: FaaSTBackend,
    InfiniCacheBackend.name: InfiniCacheBackend,
}


def make_backend(
    name: str,
    kernel: Kernel,
    node_ids: List[str],
    config: Optional[OFCConfig] = None,
    rng=None,
    max_object_size: Optional[int] = None,
) -> CacheBackend:
    """Build the named cache backend ("ofc", "faast", "infinicache").

    ``config`` defaults to :class:`OFCConfig`'s defaults, and
    ``max_object_size`` to that config's ``max_cacheable_bytes``."""
    try:
        backend_cls = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown cache backend {name!r}; known: {sorted(BACKENDS)}"
        ) from None
    config = config or OFCConfig()
    if max_object_size is None:
        max_object_size = config.max_cacheable_bytes
    return backend_cls(
        kernel, node_ids, config=config, rng=rng,
        max_object_size=max_object_size,
    )


__all__ = [
    "BACKENDS",
    "CacheBackend",
    "CostMeter",
    "FaaSTBackend",
    "InfiniCacheBackend",
    "OFCCacheBackend",
    "make_backend",
]
