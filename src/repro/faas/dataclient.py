"""Data-access layer handed to function bodies.

Function code is written against this interface only, which is what
makes OFC *transparent*: the platform decides whether a function's
reads and writes hit the RSDS directly (OWK-Swift), an IMOC (OWK-Redis)
or OFC's rclib proxy — the function body never changes.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from repro.storage.meta import ObjectMeta, StoredObject
from repro.storage.object_store import ObjectStore


class DataClient:
    """Abstract E/L data plane for function bodies."""

    def read(self, bucket: str, name: str) -> Generator[Any, Any, StoredObject]:
        raise NotImplementedError

    def write(
        self,
        bucket: str,
        name: str,
        payload: Any,
        size: int,
        content_type: str = "application/octet-stream",
        user_meta: Optional[Dict[str, Any]] = None,
        intermediate: bool = False,
        pipeline_id: Optional[str] = None,
    ) -> Generator[Any, Any, None]:
        raise NotImplementedError

    def delete(self, bucket: str, name: str) -> Generator[Any, Any, None]:
        raise NotImplementedError


class DirectStoreClient(DataClient):
    """Reads and writes straight to one object store.

    Used by both baselines: OWK-Swift (store has the Swift latency
    profile) and OWK-Redis (store has the Redis profile).  Each method
    hands back the store's own generator rather than wrapping it in a
    pass-through one, so every resumption of an RSDS operation skips a
    frame.  Callers ``yield from`` the result at once, as with any
    client.
    """

    def __init__(self, store: ObjectStore):
        self.store = store

    def read(self, bucket: str, name: str) -> Generator[Any, Any, StoredObject]:
        return self.store.get(bucket, name, internal=True)

    def write(
        self,
        bucket: str,
        name: str,
        payload: Any,
        size: int,
        content_type: str = "application/octet-stream",
        user_meta: Optional[Dict[str, Any]] = None,
        intermediate: bool = False,
        pipeline_id: Optional[str] = None,
    ) -> Generator[Any, Any, ObjectMeta]:
        self.store.ensure_bucket(bucket)
        return self.store.put(
            bucket,
            name,
            payload,
            size,
            content_type=content_type,
            user_meta=user_meta,
            internal=True,
        )

    def delete(self, bucket: str, name: str) -> Generator[Any, Any, None]:
        return self.store.delete(bucket, name, internal=True)
