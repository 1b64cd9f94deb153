"""The object store itself.

All blocking operations are generator methods, used from simulation
processes as ``result = yield from store.get(...)``.

The store supports **webhooks** (§6.2): callbacks registered by OFC and
triggered on *external* reads and writes.  A read hook may block the GET
until the latest payload has been persisted; a write hook lets OFC
invalidate cached copies before an external overwrite.  Operations
issued by OFC itself (the rclib proxy and persistor functions) pass
``internal=True`` and bypass the hooks, mirroring how Swift middleware
distinguishes the cache's own traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.sim.kernel import Kernel
from repro.sim.resources import Resource
from repro.storage.errors import (
    BucketExists,
    NoSuchBucket,
    NoSuchObject,
    StoreUnavailable,
)
from repro.storage.latency_profiles import LatencyProfile, SWIFT_PROFILE
from repro.storage.meta import ObjectMeta, StoredObject

#: A webhook is a generator function: ``hook(op, meta) -> Generator``.
Webhook = Callable[[str, ObjectMeta], Generator]


@dataclass
class StoreStats:
    """Operation counters for one store instance."""

    gets: int = 0
    puts: int = 0
    deletes: int = 0
    stats_ops: int = 0
    lists: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    shadow_puts: int = 0
    hook_blocks: int = 0
    unavailable_errors: int = 0

    def snapshot(self) -> Dict[str, int]:
        return dict(self.__dict__)


@dataclass
class _Bucket:
    name: str
    objects: Dict[str, StoredObject] = field(default_factory=dict)


class ObjectStore:
    """A bucket/object store with simulated latencies and webhooks."""

    def __init__(
        self,
        kernel: Kernel,
        profile: LatencyProfile = SWIFT_PROFILE,
        rng=None,
        concurrency: int = 64,
    ):
        self.kernel = kernel
        self.profile = profile
        self.rng = rng
        self.stats = StoreStats()
        self._buckets: Dict[str, _Bucket] = {}
        self._slots = Resource(kernel, concurrency)
        self._read_hooks: List[Webhook] = []
        self._write_hooks: List[Webhook] = []
        #: Injected fault state (:class:`repro.sim.faults.FaultState`);
        #: ``None`` keeps the data plane on the zero-cost path.
        self.faults = None

    # -- webhook registration ---------------------------------------------

    def register_read_hook(self, hook: Webhook) -> None:
        self._read_hooks.append(hook)

    def register_write_hook(self, hook: Webhook) -> None:
        self._write_hooks.append(hook)

    # -- bucket management (instantaneous control-plane helpers) -----------

    def create_bucket(self, name: str) -> None:
        if name in self._buckets:
            raise BucketExists(name)
        self._buckets[name] = _Bucket(name)

    def ensure_bucket(self, name: str) -> None:
        self._buckets.setdefault(name, _Bucket(name))

    def has_bucket(self, name: str) -> bool:
        return name in self._buckets

    def _bucket(self, name: str) -> _Bucket:
        try:
            return self._buckets[name]
        except KeyError:
            raise NoSuchBucket(name) from None

    def _object(self, bucket: str, name: str) -> StoredObject:
        objects = self._bucket(bucket).objects
        try:
            return objects[name]
        except KeyError:
            raise NoSuchObject(f"{bucket}/{name}") from None

    # -- data plane ---------------------------------------------------------

    def _delay(self, model, nbytes: int = 0) -> float:
        # A bare delay for the caller to yield, as CacheCluster._delay:
        # same queue slot and sequence number as a kernel.timeout(), no
        # Timeout object per RSDS operation.
        duration = model.sample(self.rng, nbytes)
        faults = self.faults
        if faults is not None:
            duration *= faults.rsds_latency_scale
        return duration

    def _check_available(self, op: str) -> None:
        """Raise :class:`StoreUnavailable` during an injected outage."""
        faults = self.faults
        if faults is not None and faults.rsds_down:
            self.stats.unavailable_errors += 1
            raise StoreUnavailable(f"rsds outage: {op}")

    def get(
        self, bucket: str, name: str, internal: bool = False
    ) -> Generator[Any, Any, StoredObject]:
        """GET an object; returns a :class:`StoredObject` copy."""
        tracer = self.kernel.tracer
        span = (
            tracer.start("rsds.get", internal=internal)
            if tracer.enabled
            else None
        )
        yield self._slots.acquire()
        try:
            self._check_available("get")
            obj = self._object(bucket, name)  # fail before paying latency
            if not internal:
                for hook in self._read_hooks:
                    self.stats.hook_blocks += 1
                    yield from hook("read", obj.meta)
                obj = self._object(bucket, name)  # hook may have updated it
            yield self._delay(self.profile.read, obj.meta.size)
            self.stats.gets += 1
            self.stats.bytes_read += obj.meta.size
            return StoredObject(meta=obj.meta.copy(), payload=obj.payload)
        finally:
            self._slots.release()
            if span is not None:
                span.finish()

    def put(
        self,
        bucket: str,
        name: str,
        payload: Any,
        size: int,
        content_type: str = "application/octet-stream",
        user_meta: Optional[Dict[str, Any]] = None,
        shadow: bool = False,
        internal: bool = False,
    ) -> Generator[Any, Any, ObjectMeta]:
        """PUT (create or overwrite) an object.

        With ``shadow=True`` only a zero-payload placeholder is written:
        the object's ``version`` advances but ``rsds_version`` does not,
        and the previous payload (if any) is dropped.  The transfer cost
        is that of an empty body.
        """
        tracer = self.kernel.tracer
        span = (
            tracer.start("rsds.put", internal=internal, shadow=shadow)
            if tracer.enabled
            else None
        )
        yield self._slots.acquire()
        try:
            self._check_available("put")
            bkt = self._bucket(bucket)
            existing = bkt.objects.get(name)
            if not internal and existing is not None:
                for hook in self._write_hooks:
                    self.stats.hook_blocks += 1
                    yield from hook("write", existing.meta)
            if shadow:
                yield self._delay(self.profile.shadow_write)
            else:
                yield self._delay(self.profile.write, size)
            now = self.kernel.now
            if existing is None:
                meta = ObjectMeta(
                    bucket=bucket,
                    name=name,
                    created_at=now,
                )
            else:
                meta = existing.meta
            meta.size = size
            meta.content_type = content_type
            meta.updated_at = now
            meta.version += 1
            if user_meta:
                meta.user_meta.update(user_meta)
            if shadow:
                stored_payload = None
                self.stats.shadow_puts += 1
            else:
                stored_payload = payload
                meta.rsds_version = meta.version
                self.stats.bytes_written += size
            bkt.objects[name] = StoredObject(meta=meta, payload=stored_payload)
            self.stats.puts += 1
            return meta.copy()
        finally:
            self._slots.release()
            if span is not None:
                span.finish()

    def persist_payload(
        self, bucket: str, name: str, payload: Any, version: int
    ) -> Generator[Any, Any, bool]:
        """Fill in the payload of a shadow object (persistor back-end).

        Returns False (and writes nothing) when ``version`` is older than
        the object's current version, which is how successive updates are
        kept in order (§6.2).
        """
        tracer = self.kernel.tracer
        span = tracer.start("rsds.persist") if tracer.enabled else None
        yield self._slots.acquire()
        try:
            self._check_available("persist")
            obj = self._object(bucket, name)
            if version < obj.meta.version:
                return False
            yield self._delay(self.profile.write, obj.meta.size)
            obj.payload = payload
            obj.meta.rsds_version = version
            self.stats.puts += 1
            self.stats.bytes_written += obj.meta.size
            return True
        finally:
            self._slots.release()
            if span is not None:
                span.finish()

    def delete(
        self, bucket: str, name: str, internal: bool = False
    ) -> Generator[Any, Any, None]:
        tracer = self.kernel.tracer
        span = (
            tracer.start("rsds.delete", internal=internal)
            if tracer.enabled
            else None
        )
        yield self._slots.acquire()
        try:
            self._check_available("delete")
            obj = self._object(bucket, name)
            if not internal:
                for hook in self._write_hooks:
                    self.stats.hook_blocks += 1
                    yield from hook("delete", obj.meta)
            yield self._delay(self.profile.delete)
            self._bucket(bucket).objects.pop(name, None)
            self.stats.deletes += 1
        finally:
            self._slots.release()
            if span is not None:
                span.finish()

    def stat(
        self, bucket: str, name: str
    ) -> Generator[Any, Any, ObjectMeta]:
        """HEAD: metadata only, no payload transfer, no hooks."""
        yield self._slots.acquire()
        try:
            obj = self._object(bucket, name)
            yield self._delay(self.profile.stat)
            self.stats.stats_ops += 1
            return obj.meta.copy()
        finally:
            self._slots.release()

    def list_objects(self, bucket: str) -> Generator[Any, Any, List[str]]:
        yield self._slots.acquire()
        try:
            names = sorted(self._bucket(bucket).objects)
            yield self._delay(self.profile.list)
            self.stats.lists += 1
            return names
        finally:
            self._slots.release()

    # -- synchronous inspection helpers (control plane, for OFC & tests) ----

    def peek_meta(self, bucket: str, name: str) -> ObjectMeta:
        """Read metadata without simulated latency (OFC-internal path)."""
        return self._object(bucket, name).meta

    def contains(self, bucket: str, name: str) -> bool:
        bkt = self._buckets.get(bucket)
        return bkt is not None and name in bkt.objects

    def object_count(self, bucket: Optional[str] = None) -> int:
        if bucket is not None:
            return len(self._bucket(bucket).objects)
        return sum(len(b.objects) for b in self._buckets.values())
