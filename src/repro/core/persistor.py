"""Persistor: asynchronous write-back of cached payloads (§6.2).

Each dirty write that rclib buffers in the cache schedules a persistor
— a helper function injected into the FaaS platform — that pushes the
payload to the RSDS and updates the object's version metadata.  Version
numbers keep successive updates ordered; the webhook path can *boost* a
pending persist by awaiting its completion event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.kvcache.errors import NoSuchKey
from repro.sim.kernel import Event, Kernel
from repro.sim.latency import PLATFORM_OVERHEAD
from repro.storage.errors import NoSuchObject, StoreUnavailable
from repro.storage.object_store import ObjectStore

#: Retry policy for transient RSDS failures: capped exponential backoff.
RETRY_BASE_DELAY = 0.1
RETRY_MAX_DELAY = 5.0
RETRY_MAX_ATTEMPTS = 8
#: With requeueing on, how many exhausted retry cycles a persistor may
#: re-enter before giving up terminally (backstop against an RSDS that
#: never comes back; ~64 cycles is several sim-minutes of outage).
REQUEUE_MAX_CYCLES = 64


@dataclass
class PersistorStats:
    scheduled: int = 0
    completed: int = 0
    superseded: int = 0
    bytes_persisted: int = 0
    boosts: int = 0
    retries: int = 0
    gave_up: int = 0
    requeues: int = 0


class PersistorService:
    """Schedules and tracks persistor helper functions."""

    def __init__(
        self,
        kernel: Kernel,
        store: ObjectStore,
        cluster,  # any repro.kvcache.backend.CacheBackend
        rng=None,
        on_persisted: Optional[Callable[[str, bool, int], None]] = None,
        requeue: bool = True,
    ):
        self.kernel = kernel
        self.store = store
        self.cluster = cluster
        self.rng = rng
        #: After a full retry cycle fails, park and re-enter instead of
        #: giving up — the completion event stays pending so boosts keep
        #: blocking until the payload actually lands (chaos-harness
        #: finding: the give-up path let acked write-back data go stale
        #: for readers, and lose entirely if the cache copy then died).
        self.requeue = requeue
        #: Callback ``(key, final, version)`` after a successful persist
        #: (the CacheAgent discards final outputs here, §6.3).
        self.on_persisted = on_persisted
        self._pending: Dict[str, Event] = {}
        self.stats = PersistorStats()

    def pending_for(self, key: str) -> Optional[Event]:
        return self._pending.get(key)

    def schedule(
        self,
        bucket: str,
        name: str,
        payload: Any,
        version: int,
        final: bool,
        size: int = 0,
        create_if_missing: bool = False,
    ) -> Event:
        """Inject a persistor function for one (object, version).

        ``create_if_missing`` handles relaxed-consistency write-back
        (§6.2): no shadow exists in the RSDS, so the persistor performs
        a full PUT instead of filling a placeholder.
        """
        key = f"{bucket}/{name}"
        done = self.kernel.event()
        self._pending[key] = done
        self.stats.scheduled += 1

        def persistor():
            # The persistor runs as a FaaS helper function: it pays the
            # platform dispatch overhead before touching the RSDS.
            tracer = self.kernel.tracer
            span = (
                tracer.start("persistor.flush", final=final)
                if tracer is not None
                else None
            )
            yield PLATFORM_OVERHEAD.sample(self.rng)
            ok = False
            gave_up = False
            cycles = 0
            while True:
                backoff = RETRY_BASE_DELAY
                gave_up = False
                for attempt in range(RETRY_MAX_ATTEMPTS):
                    try:
                        ok = yield from self._flush_once(
                            bucket, name, payload, version, size,
                            create_if_missing,
                        )
                        break
                    except StoreUnavailable:
                        # Transient RSDS failure: back off and retry.
                        # The healthy path takes the break on attempt 0
                        # without any extra yields, so no-fault
                        # schedules are unchanged.
                        if attempt == RETRY_MAX_ATTEMPTS - 1:
                            gave_up = True
                            break
                        self.stats.retries += 1
                        yield backoff
                        backoff = min(backoff * 2.0, RETRY_MAX_DELAY)
                if not gave_up:
                    break
                if not self.requeue or cycles >= REQUEUE_MAX_CYCLES:
                    break
                # Requeue: park through the outage and start a fresh
                # retry cycle.  Crucially the ``done`` event stays
                # pending, so boost() waiters (read webhooks, bypass
                # reads) keep blocking instead of racing a stale RSDS
                # copy.
                cycles += 1
                self.stats.requeues += 1
                yield RETRY_MAX_DELAY
            if gave_up:
                # Leave the cached copy dirty: eviction / agent
                # write-back re-schedules the persist once the RSDS
                # recovers, so the update is never silently dropped.
                self.stats.gave_up += 1
                if span is not None:
                    span.finish(status="unavailable")
                if self._pending.get(key) is done:
                    del self._pending[key]
                done.succeed(False)
                return
            meta = self.store.find_meta(bucket, name) if ok else None
            if meta is not None:
                self.stats.completed += 1
                self.stats.bytes_persisted += meta.size
                # Clear the dirty flag on the cached copy, if any.
                try:
                    self.cluster.set_flags(key, dirty=False)
                except NoSuchKey:
                    pass
                if self.on_persisted is not None:
                    self.on_persisted(key, final, version)
            else:
                self.stats.superseded += 1
            if span is not None:
                span.finish(status="completed" if ok else "superseded")
            if self._pending.get(key) is done:
                del self._pending[key]
            done.succeed(ok)

        self.kernel.process(persistor(), name=f"persistor-{key}")
        return done

    def _flush_once(self, bucket, name, payload, version, size, create_if_missing):
        """One persist attempt; True when the payload landed."""
        try:
            return (
                yield from self.store.persist_payload(
                    bucket, name, payload, version
                )
            )
        except NoSuchObject:
            if create_if_missing:
                self.store.ensure_bucket(bucket)
                yield from self.store.put(
                    bucket, name, payload, size, internal=True
                )
                return True
            # The object was deleted while this persist was queued
            # (e.g. a pipeline cleanup removed its intermediates).
            return False

    def boost(self, key: str):
        """Generator: wait until a pending persist of ``key`` completes.

        Used by the RSDS read webhook (§6.2) to hold an external GET
        until the latest payload is available.  No-op when nothing is
        pending.
        """
        event = self._pending.get(key)
        if event is not None:
            self.stats.boosts += 1
            yield event
