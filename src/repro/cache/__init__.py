"""Pluggable cache-architecture backends for the OFC platform.

``OFCConfig.cache_backend`` selects the architecture behind the data
plane; :func:`make_backend` builds it.  The contract every backend
implements, :class:`CacheBackend`, lives in :mod:`repro.kvcache.backend`
(where the cluster, which ``repro.core`` imports, can derive from it).
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from repro import lazy_exports
from repro.core.config import OFCConfig
from repro.kvcache.objects import MAX_OBJECT_SIZE

if TYPE_CHECKING:
    from repro.kvcache.backend import CacheBackend
    from repro.sim.kernel import Kernel

#: Public name -> the module that defines it, imported on first access.
_EXPORTS = {
    "CacheBackend": "repro.kvcache.backend",
    "CostMeter": "repro.kvcache.backend",
    "FaaSTBackend": ".faast",
    "InfiniCacheBackend": ".infinicache",
    "OFCCacheBackend": ".ofc_backend",
}
_lazy_all, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
__all__ = ["BACKENDS", "make_backend", *_lazy_all]

#: Architecture name (each class's ``name``) -> the class that builds
#: it, resolved on use so a deployment imports only its own.
BACKENDS = {
    "ofc": "OFCCacheBackend",
    "faast": "FaaSTBackend",
    "infinicache": "InfiniCacheBackend",
}


def make_backend(
    name: str,
    kernel: Kernel,
    node_ids: List[str],
    config: Optional[OFCConfig] = None,
    rng=None,
    max_object_size: int = MAX_OBJECT_SIZE,
) -> CacheBackend:
    """Build the named cache backend ("ofc", "faast", "infinicache").

    ``config`` defaults to :class:`OFCConfig`'s defaults."""
    try:
        class_name = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown cache backend {name!r}; known: {sorted(BACKENDS)}"
        ) from None
    backend_cls = __getattr__(class_name)
    return backend_cls(
        kernel, node_ids, config=config or OFCConfig(), rng=rng,
        max_object_size=max_object_size,
    )
