"""Object metadata and stored-object records.

Both records are values: the store builds a new one for every write
and hands out the stored one itself, so a meta or object a caller got
from ``get``, ``put`` or ``stat`` never changes under it, and the
caller must not change it either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro import EMPTY, slotted


@slotted
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
    #: Objects written without tags share :data:`repro.EMPTY`.
    user_meta: Mapping[str, Any] = field(default_factory=lambda: EMPTY)

    @property
    def key(self) -> str:
        return f"{self.bucket}/{self.name}"

    @property
    def is_shadow(self) -> bool:
        """True when the RSDS does not hold the latest payload."""
        return self.version > self.rsds_version


@slotted
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
