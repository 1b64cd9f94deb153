"""rclib: the transparent data-plane proxy (§4, §6.2).

Function bodies never know the cache exists: the platform hands them an
:class:`RcLibClient` instead of a direct store client.  Reads try the
cache first and fall back to the RSDS (populating the cache
asynchronously on a miss); writes create a synchronous zero-payload
*shadow* in the RSDS, buffer the payload in the cache (write-back), and
schedule a persistor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional

from repro import EMPTY
from repro.core.config import OFCConfig
from repro.core.persistor import PersistorService
from repro.core.tenancy import TenantCacheAccounting
from repro.faas.dataclient import DataClient
from repro.faas.records import InvocationRecord
from repro.kvcache.errors import CacheError, CapacityExceeded, NoSuchKey, ObjectTooLarge
from repro.kvcache.objects import MAX_OBJECT_SIZE
from repro.sim.kernel import Kernel
from repro.storage.errors import NoSuchObject, StoreUnavailable
from repro.storage.meta import ObjectMeta, StoredObject
from repro.storage.object_store import ObjectStore


@dataclass
class RcLibStats:
    """Cluster-wide data-plane counters (Table 2 feeds on these)."""

    hits_local: int = 0
    hits_remote: int = 0
    misses: int = 0
    uncached_reads: int = 0
    writes_cached: int = 0
    writes_direct: int = 0
    write_back_fallbacks: int = 0
    ephemeral_bytes: int = 0
    shadow_writes: int = 0
    degraded_reads: int = 0
    degraded_writes: int = 0
    bypass_reads: int = 0
    bypass_writes: int = 0
    #: RSDS reads held for an in-flight persist of the same key (§6.2
    #: boost, applied explicitly on the proxy's store-read paths).
    pending_boosts: int = 0
    #: Read-miss fills skipped because the same key already had one in
    #: flight (two concurrent misses must not double-fill the cache).
    fills_deduped: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits_local + self.hits_remote + self.misses
        if total == 0:
            return 0.0
        return (self.hits_local + self.hits_remote) / total


class RcLibClient(DataClient):
    """Per-invocation cache-aware data client for one worker node."""

    def __init__(
        self,
        kernel: Kernel,
        node_id: str,
        cluster,  # any repro.kvcache.backend.CacheBackend
        store: ObjectStore,
        persistor: PersistorService,
        config: OFCConfig,
        record: InvocationRecord,
        stats: RcLibStats,
        tenancy: TenantCacheAccounting,
        inflight_fills: set,
    ):
        self.kernel = kernel
        self.node_id = node_id
        self.cluster = cluster
        self.store = store
        self.persistor = persistor
        self.config = config
        self.record = record
        self.stats = stats
        #: Per-tenant accounting and admission, shared deployment-wide.
        self.tenancy = tenancy
        #: Keys with a fill in flight, shared deployment-wide by the
        #: platform so concurrent clients dedupe against each other.
        self.inflight_fills = inflight_fills

    @property
    def _tenant(self) -> str:
        request = getattr(self.record, "request", None)
        return getattr(request, "tenant", "") or ""

    def _admit(self, size: int, tenant: str) -> bool:
        """Cross-tenant admission check for caching ``size`` bytes."""
        if not tenant:
            return True
        # Quotas divide the *clamped* capacity: the live total can sit
        # above a configured cache_cap_mb (resizes never go below what
        # the backup log holds), and per-tenant entitlements derived
        # from the unclamped figure would sum past the operator's cap.
        return self.tenancy.admit(tenant, size, self.cluster.quota_capacity)

    # -- helpers ------------------------------------------------------------

    @property
    def _should_cache(self) -> bool:
        return self.record.should_cache is not False

    def _cacheable(self, size: int) -> bool:
        return self._should_cache and size <= MAX_OBJECT_SIZE

    def _as_stored_object(self, key: str, cached) -> StoredObject:
        bucket, _sep, name = key.partition("/")
        meta = ObjectMeta(
            bucket=bucket,
            name=name,
            size=cached.size,
            version=cached.version,
            user_meta=cached.flags.get("user_meta") or EMPTY,
        )
        return StoredObject(meta=meta, payload=cached.value)

    # -- reads ---------------------------------------------------------------

    @property
    def _bypass_cache(self) -> bool:
        """Degraded mode: skip the cache entirely (fault-injected)."""
        faults = self.cluster.faults
        return faults is not None and faults.bypass_cache

    def _boost_pending(self, key: str) -> Generator[Any, Any, None]:
        """Hold an RSDS read while a persist of ``key`` is in flight.

        The store's own read webhook cannot cover this: ``store.get``
        raises :class:`NoSuchObject` *before* hooks run, so a read
        racing a create-if-missing persist would surface a spurious
        miss (and a racing shadow-fill, a zero-payload object).
        """
        if self.persistor.pending_for(key) is not None:
            self.stats.pending_boosts += 1
            yield from self.persistor.boost(key)

    def read(self, bucket: str, name: str) -> Generator[Any, Any, StoredObject]:
        if self._bypass_cache:
            self.stats.bypass_reads += 1
            # Bypass reads are *external* to the cache: take the
            # webhook path (shadow objects are filled from the cache)
            # after explicitly boosting any pending persist.
            yield from self._boost_pending(f"{bucket}/{name}")
            obj = yield from self.store.get(bucket, name, internal=False)
            return obj
        key = f"{bucket}/{name}"
        location = self.cluster.location_of(key)
        if location is not None:
            try:
                cached = yield from self.cluster.get(key, caller=self.node_id)
            except NoSuchKey:
                cached = None
            except CacheError:
                # The master's node went down between the location check
                # and the read (ServerDown must not reach the function):
                # degrade to the RSDS copy below.
                self.stats.degraded_reads += 1
                cached = None
            if cached is not None:
                if location == self.node_id:
                    self.stats.hits_local += 1
                else:
                    self.stats.hits_remote += 1
                tenant = self._tenant  # two getattrs; resolve once
                if tenant:
                    self.tenancy.record_hit(tenant, cached.size)
                return self._as_stored_object(key, cached)
        # Miss fallback: if the key's latest version is still being
        # persisted (cache copy evicted or its node crashed while the
        # write-back was in flight), wait it out rather than reading a
        # shadow or stale RSDS copy.
        yield from self._boost_pending(key)
        obj = yield from self.store.get(bucket, name, internal=True)
        if self._should_cache:
            self.stats.misses += 1
            tenant = self._tenant
            if tenant:
                self.tenancy.record_miss(tenant, obj.meta.size)
            if self._cacheable(obj.meta.size) and self._admit(
                obj.meta.size, tenant
            ):
                self._populate_async(key, obj)
        else:
            self.stats.uncached_reads += 1
        return obj

    def _populate_async(self, key: str, obj: StoredObject) -> None:
        """Admit a read-miss object to the cache off the critical path.

        At most one fill per key is in flight deployment-wide: two
        concurrent misses on the same key used to each schedule a fill,
        double-counting cache writes and skewing the hit-ratio metrics.
        """
        fills = self.inflight_fills
        if key in fills:
            self.stats.fills_deduped += 1
            return
        fills.add(key)

        def fill():
            try:
                yield from self.cluster.put(
                    key,
                    obj.payload,
                    obj.meta.size,
                    caller=self.node_id,
                    flags={
                        "dirty": False,
                        "input": True,
                        "tenant": self._tenant,
                        "user_meta": obj.meta.user_meta,
                    },
                )
            except (CapacityExceeded, ObjectTooLarge, CacheError):
                pass  # no room: the object simply stays uncached
            finally:
                fills.discard(key)

        self.kernel.process(fill(), name=f"cache-fill-{key}")

    # -- writes ---------------------------------------------------------------

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
        self.store.ensure_bucket(bucket)
        if self._bypass_cache:
            self.stats.bypass_writes += 1
            # External write: the webhook invalidates any cached copy,
            # otherwise a stale cache hit would shadow this update once
            # the bypass episode ends.
            yield from self.store.put(
                bucket,
                name,
                payload,
                size,
                content_type=content_type,
                user_meta=user_meta,
                internal=False,
            )
            return
        if intermediate:
            self.stats.ephemeral_bytes += size
        # Pipeline intermediates are always buffered in write-back mode
        # (§6.3/§7.2.1: "outputs are always buffered... which helps
        # multi-stage functions"); shouldBeCached only gates the rest.
        cacheable = (
            size <= MAX_OBJECT_SIZE
            if intermediate
            else self._cacheable(size)
        )
        tenant = self._tenant
        if cacheable and not self._admit(size, tenant):
            # Over the tenant's cache entitlement: the write degrades to
            # a direct RSDS put, exactly like a size-ineligible object.
            cacheable = False
        if not cacheable:
            self.stats.writes_direct += 1
            yield from self.store.put(
                bucket,
                name,
                payload,
                size,
                content_type=content_type,
                user_meta=user_meta,
                internal=True,
            )
            return
        # 1. Synchronous zero-payload shadow in the RSDS (strict mode).
        key = f"{bucket}/{name}"
        version = 1
        shadow_ok = False
        if self.config.strict_consistency:
            try:
                meta = yield from self.store.put(
                    bucket,
                    name,
                    None,
                    size,
                    content_type=content_type,
                    user_meta=user_meta,
                    shadow=True,
                    internal=True,
                )
                version = meta.version
                shadow_ok = True
                self.stats.shadow_writes += 1
            except StoreUnavailable:
                # RSDS outage: skip the shadow, buffer in the cache and
                # let the persistor create the object (relaxed-mode
                # write-back) once the store recovers.
                self.stats.degraded_writes += 1
                meta = self.store.find_meta(bucket, name)
                if meta is not None:
                    version = meta.version + 1
                else:
                    cached = self.cluster.peek(key)
                    version = (cached.version + 1) if cached is not None else 1
        else:
            cached = self.cluster.peek(key)
            version = (cached.version + 1) if cached is not None else 1
        # 2. Write-back into the cache.
        flags = {
            "dirty": True,
            "intermediate": intermediate,
            "pipeline_id": pipeline_id,
            "final": not intermediate,
            "tenant": tenant,
            "user_meta": user_meta or EMPTY,
        }
        try:
            yield from self.cluster.put(
                key, payload, size, caller=self.node_id, flags=flags
            )
            self.stats.writes_cached += 1
        except (CapacityExceeded, ObjectTooLarge, CacheError):
            # No cache room: persist the payload synchronously instead.
            self.stats.write_back_fallbacks += 1
            if self.config.strict_consistency and shadow_ok:
                yield from self.store.persist_payload(
                    bucket, name, payload, version
                )
            else:
                yield from self.store.put(
                    bucket,
                    name,
                    payload,
                    size,
                    content_type=content_type,
                    user_meta=user_meta,
                    internal=True,
                )
            return
        # 3. Asynchronous persistence — but never for intermediates:
        # pipeline-internal objects die in the cache (§6.3).  When the
        # shadow write failed (RSDS outage) the persistor runs in
        # create-if-missing mode and performs a full PUT on retry.
        if self.config.strict_consistency and not intermediate:
            self.persistor.schedule(
                bucket,
                name,
                payload,
                version,
                final=True,
                size=size,
                create_if_missing=not shadow_ok,
            )

    # -- deletes ---------------------------------------------------------------

    def delete(self, bucket: str, name: str) -> Generator[Any, Any, None]:
        key = f"{bucket}/{name}"
        try:
            yield from self.cluster.delete(key, caller=self.node_id)
        except NoSuchKey:
            pass
        try:
            yield from self.store.delete(bucket, name, internal=True)
        except NoSuchObject:
            pass
