"""Object metadata and stored-object records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional


@dataclass
class ObjectMeta:
    """Metadata of one stored object.

    Two version numbers implement the paper's shadow-object protocol
    (§6.2): ``version`` is the latest logical version of the object,
    ``rsds_version`` is the version whose payload the RSDS actually
    holds.  A discrepancy means the current payload only exists in the
    cache and the RSDS entry is a *shadow*.
    """

    bucket: str
    name: str
    size: int = 0
    content_type: str = "application/octet-stream"
    created_at: float = 0.0
    updated_at: float = 0.0
    version: int = 0
    rsds_version: int = 0
    #: Free-form tags; OFC stores pre-extracted ML features here (§5.1.2).
    user_meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def key(self) -> str:
        return f"{self.bucket}/{self.name}"

    @property
    def is_shadow(self) -> bool:
        """True when the RSDS does not hold the latest payload."""
        return self.version > self.rsds_version

    def copy(self) -> "ObjectMeta":
        # Positional, in field order: every GET and PUT returns a copy,
        # and nine keyword arguments cost about as much as the object.
        return ObjectMeta(
            self.bucket,
            self.name,
            self.size,
            self.content_type,
            self.created_at,
            self.updated_at,
            self.version,
            self.rsds_version,
            dict(self.user_meta),
        )


@dataclass
class StoredObject:
    """An object as returned by a GET: metadata plus payload.

    Payloads are opaque Python values (the workload layer stores media
    descriptors); their simulated byte size lives in ``meta.size``.
    ``payload`` is ``None`` for shadow objects whose data has not been
    persisted yet.
    """

    meta: ObjectMeta
    payload: Optional[Any] = None

    @property
    def size(self) -> int:
        return self.meta.size
