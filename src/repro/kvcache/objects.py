"""Cache object records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro import slotted
from repro.sim.latency import MB

#: Maximum object size admitted to the cache; the paper raised
#: RAMCloud's 1 MB default to 10 MB (§6.1 footnote).
MAX_OBJECT_SIZE = 10 * MB


@slotted
@dataclass
class CacheObject:
    """One cached object (either a master or a backup copy).

    ``n_access``/``t_access`` are the paper's RAMCloud extensions used
    by the periodic eviction policy (§6.3).
    """

    key: str
    value: Any
    size: int
    version: int = 1
    created_at: float = 0.0
    #: Read-access counter (reset on write).
    n_access: int = 0
    #: Epoch of the last read access.
    t_access: float = 0.0
    #: Free-form flags used by OFC (e.g. dirty, intermediate, final).
    flags: Dict[str, Any] = field(default_factory=dict)

    def replica(self, flags: Optional[Dict[str, Any]] = None) -> "CacheObject":
        """A copy that shares ``flags``, or carries ``flags`` instead.
        The cluster never changes a flags dict but replaces it, so one
        dict serves a master and all its backups; a backend that
        updates flags in place passes a copy of them."""
        return CacheObject(
            self.key, self.value, self.size, self.version,
            self.created_at, self.n_access, self.t_access,
            self.flags if flags is None else flags,
        )
