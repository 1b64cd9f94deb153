"""CacheAgent: per-node cache sizing and reclamation (§6.3, §6.4).

Each worker node runs one agent.  It listens to sandbox lifecycle
events on its Invoker and keeps the local cache server's memory pool at
exactly the node's *unused* memory (total - sandboxes - slack).  When a
sandbox needs memory back (the Invoker's ``ensure_capacity`` hook), the
agent shrinks the cache in the paper's order:

1. discard final outputs already persisted to the RSDS;
2. hand every clean object's master copy, least recently used first
   (over-quota tenants' objects before the rest), to a backup node via
   the optimized hand-off (no payload transfer), whatever its access
   count; evict it only when no backup can take it over;
3. write back dirty outputs and discard them on completion.

The paper migrates *hot* objects in step 2.  Migrating cold ones too
keeps their later reads hits, at the price of many more hand-offs when
memory is tight.

It also runs the periodic eviction policy (every 300 s: evict objects
with fewer than 5 reads or idle for more than 30 min) and maintains the
slack pool from a sliding window of memory churn.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
from typing import Callable, Dict, Generator, List, Optional

from repro.core.config import OFCConfig
from repro.core.metrics import OFCMetrics
from repro.core.persistor import PersistorService
from repro.core.tenancy import TenantCacheAccounting
from repro.faas.invoker import Invoker
from repro.faas.sandbox import Sandbox
from repro.kvcache.cluster import CacheCluster
from repro.kvcache.errors import CapacityExceeded, NoSuchKey
from repro.sim.kernel import Kernel
from repro.sim.latency import MB

_by_t_access = attrgetter("t_access")

#: Periodic eviction (§6.3): every period, evict objects read fewer
#: than ``EVICTION_MIN_ACCESSES`` times or idle for longer than
#: ``EVICTION_MAX_IDLE_S``.
EVICTION_PERIOD_S = 300.0
EVICTION_MIN_ACCESSES = 5
EVICTION_MAX_IDLE_S = 30 * 60.0
#: Slack pool (§6.4): its initial (and least) size, how often it is
#: re-estimated, how often memory churn is sampled and how many samples
#: the sliding window holds.
SLACK_INITIAL_MB = 100.0
SLACK_ADJUST_PERIOD_S = 120.0
CHURN_SAMPLE_PERIOD_S = 60.0
CHURN_WINDOW_SAMPLES = 5


class CacheAgent:
    """One node's cache management loop."""

    def __init__(
        self,
        kernel: Kernel,
        invoker: Invoker,
        cluster: CacheCluster,
        persistor: PersistorService,
        config: OFCConfig,
        metrics: OFCMetrics,
        tenancy: TenantCacheAccounting,
    ):
        self.kernel = kernel
        self.invoker = invoker
        self.cluster = cluster
        self.persistor = persistor
        self.config = config
        self.metrics = metrics
        #: Per-tenant accounting: reclamation evicts over-quota tenants'
        #: objects first and the periodic sweep resynchronises the
        #: usage ledger.
        self.tenancy = tenancy
        self.node_id = invoker.node_id
        self.server = cluster.server(invoker.node_id)
        self._retarget_queued = False
        # Shrinks are serialized per node: two interleaved shrink loops
        # would migrate the same objects back and forth between nodes.
        self._shrink_active = False
        self._shrink_waiters: List = []
        self._churn_samples: deque = deque(maxlen=CHURN_WINDOW_SAMPLES)
        self._last_committed_mb: Optional[float] = None
        # Wire into the invoker.
        invoker.slack_mb = SLACK_INITIAL_MB
        invoker.listeners.append(self._on_sandbox_event)
        invoker.ensure_capacity = self.ensure_capacity
        self._started = False

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Spawn the periodic eviction and slack-adjustment loops."""
        if self._started:
            return
        self._started = True
        self.kernel.process(
            self._eviction_loop(), name=f"cache-evict-{self.node_id}"
        )
        self.kernel.process(
            self._slack_loop(), name=f"cache-slack-{self.node_id}"
        )
        self._queue_retarget()

    # -- target sizing ------------------------------------------------------------

    def target_capacity_bytes(self) -> int:
        """The cache gets everything sandboxes and slack do not hold,
        up to the optional per-node harvest ceiling."""
        free_mb = (
            self.invoker.total_memory_mb
            - self.invoker.committed_mb
            - self.invoker.slack_mb
        )
        if self.config.cache_cap_mb is not None:
            free_mb = min(free_mb, self.config.cache_cap_mb)
        return max(0, int(free_mb * MB))

    def _on_sandbox_event(self, event: str, sandbox: Sandbox) -> None:
        self._queue_retarget()

    def _queue_retarget(self) -> None:
        if self._retarget_queued:
            return
        self._retarget_queued = True
        self.kernel.process(
            self._retarget(), name=f"cache-retarget-{self.node_id}"
        )

    def _retarget(self) -> Generator:
        self._retarget_queued = False
        target = self.target_capacity_bytes()
        current = self.server.capacity
        tracer = self.kernel.tracer
        span = (
            tracer.start("cache.retarget", node=self.node_id)
            if tracer is not None
            else None
        )
        if target > current:
            started = self.kernel.now
            yield from self.cluster.scale_up(self.node_id, target - current)
            self.invoker.cache_reserved_mb = self.server.capacity / MB
            self.metrics.scale_ups += 1
            self.metrics.scale_up_time_s += self.kernel.now - started
            direction = "grow"
        elif target < current:
            yield from self._shrink_to(target)
            direction = "shrink"
        else:
            direction = "steady"
        self.metrics.record_cache_size(
            self.kernel.now, self.cluster.total_capacity
        )
        if span is not None:
            span.finish(direction=direction)

    # -- shrinking ------------------------------------------------------------------

    def _fits(self, target_bytes: int) -> bool:
        log = self.server.log
        if log.footprint_bytes <= target_bytes:
            return True
        if not log.cleanable:
            # Nothing to relocate: the pass would free nothing, but it
            # is still counted as one (``LogStats.cleanings``).
            log.stats.cleanings += 1
            return False
        log.clean()
        return log.footprint_bytes <= target_bytes

    def _local_masters(self) -> List:
        return self.server.master_objects()

    #: When reclamation must touch data, free this much extra so the
    #: running invocation's output still fits in the shrunken pool.
    SHRINK_HEADROOM = 16 * MB

    def _shrink_to(self, target_bytes: int) -> Generator:
        """Free master-log space until ``target_bytes`` suffices, then
        apply the resize.  Implements the §6.4 reclamation order."""
        while self._shrink_active:
            gate = self.kernel.event()
            self._shrink_waiters.append(gate)
            yield gate
        if self.server.capacity <= target_bytes:
            return  # a prior shrink already did the work
        self._shrink_active = True
        try:
            yield from self._shrink_locked(target_bytes)
        finally:
            self._shrink_active = False
            waiters, self._shrink_waiters = self._shrink_waiters, []
            for gate in waiters:
                gate.succeed()

    def _shrink_locked(self, target_bytes: int) -> Generator:
        started = self.kernel.now
        tracer = self.kernel.tracer
        span = (
            tracer.start("cache.shrink", node=self.node_id)
            if tracer is not None
            else None
        )
        evicted = False
        migrated = False
        goal = target_bytes
        if not self._fits(target_bytes):
            goal = max(0, target_bytes - self.SHRINK_HEADROOM)
        # Pass 1: persisted final outputs not yet discarded.
        if not self._fits(goal):
            for obj in self._local_masters():
                if self._fits(goal):
                    break
                if obj.flags.get("final") and not obj.flags.get("dirty", False):
                    yield from self._drop(obj.key)
                    evicted = True
        # Pass 2: every clean object in reclamation order; migrate its
        # master, else evict it.
        if not self._fits(goal):
            clean = [
                o
                for o in self._local_masters()
                if not o.flags.get("dirty", False)
            ]
            clean.sort(key=self._reclaim_order())
            for obj in clean:
                if self._fits(goal):
                    break
                new_master = None
                try:
                    new_master = yield from self.cluster.migrate_master(obj.key)
                except NoSuchKey:
                    continue
                if new_master is not None:
                    migrated = True
                    self.metrics.migrations += 1
                    self.metrics.migrated_bytes += obj.size
                else:
                    yield from self._drop(obj.key)
                    evicted = True
        # Pass 3: dirty outputs — write back, then discard.
        if not self._fits(goal):
            dirty = [
                o for o in self._local_masters() if o.flags.get("dirty", False)
            ]
            dirty.sort(key=_by_t_access)
            for obj in dirty:
                if self._fits(goal):
                    break
                bucket, _sep, name = obj.key.partition("/")
                done = self.persistor.schedule(
                    bucket,
                    name,
                    obj.value,
                    obj.version,
                    final=bool(obj.flags.get("final")),
                    size=obj.size,
                    create_if_missing=not self.config.strict_consistency,
                )
                yield done
                if self.cluster.contains(obj.key):
                    yield from self._drop(obj.key)
                evicted = True
        # Apply the resize (partial if reclamation could not free enough).
        new_capacity = max(target_bytes, self.server.used_bytes)
        try:
            yield from self.cluster.scale_down(
                self.node_id, new_capacity, evicting=evicted
            )
        except CapacityExceeded:
            self.server.log.clean()
            new_capacity = max(new_capacity, self.server.used_bytes)
            yield from self.cluster.scale_down(
                self.node_id, new_capacity, evicting=evicted
            )
        self.invoker.cache_reserved_mb = self.server.capacity / MB
        if migrated:
            self.metrics.scale_downs_migration += 1
        elif evicted:
            self.metrics.scale_downs_eviction += 1
        else:
            self.metrics.scale_downs_plain += 1
        self.metrics.scale_down_time_s += self.kernel.now - started
        if span is not None:
            span.finish(
                mode="migration" if migrated else ("eviction" if evicted else "plain")
            )

    def _reclaim_order(self) -> Callable:
        """Sort key for pass-2 reclamation, valid for one sort.

        Objects belonging to tenants holding more than their entitlement
        go first, LRU within each class (plain LRU under the ``none``
        policy, where nobody is over quota): reclamation pressure lands
        on the over-consumers before it touches anyone's fair share.
        Nothing yields during a sort, so the quota base and each
        tenant's standing are read once per sort, not once per object.
        """
        tenancy = self.tenancy
        # Same capacity base as admission (proxy._admit): the clamped
        # figure, or quota checks disagree whenever the live total
        # overshoots a configured cache_cap_mb.
        capacity = self.cluster.quota_capacity
        over: Dict[str, bool] = {}

        def order(obj):
            tenant = obj.flags.get("tenant")
            if not tenant:
                return (True, obj.t_access)
            flag = over.get(tenant)
            if flag is None:
                flag = over[tenant] = tenancy.over_quota(tenant, capacity)
            return (not flag, obj.t_access)

        return order

    def _drop(self, key: str) -> Generator:
        try:
            yield from self.cluster.delete(key, caller=self.node_id)
            self.metrics.evictions_pressure += 1
        except NoSuchKey:
            pass

    # -- invoker hook ------------------------------------------------------------------

    def ensure_capacity(self, invoker: Invoker, needed_mb: float) -> Generator:
        """Release node memory from the cache until the invoker's
        accounting balances.

        The shortfall is recomputed on every round: while one shrink is
        in flight, more sandboxes may commit memory concurrently, so a
        target computed up front goes stale immediately.
        """
        for _round in range(4):
            shortfall_mb = -invoker.available_mb
            if shortfall_mb <= 1e-3:
                break
            # Fast-fail when the cache cannot possibly cover the
            # shortfall: under heavy cold-start churn many creations
            # hold committed memory while queueing on the shrink lock,
            # so each waiter sees every other waiter's commitment in
            # the shortfall.  Draining the whole cache for a request
            # that still cannot fit only deepens the convoy — reject
            # immediately and let the scheduler try another node.
            if shortfall_mb * MB > self.server.capacity + 1:
                return False
            target = max(
                0, self.server.capacity - int(shortfall_mb * MB)
            )
            yield from self._shrink_to(target)
            if invoker.available_mb >= -1e-3:
                break
        return invoker.available_mb >= -1e-3

    # -- periodic eviction (§6.3) ----------------------------------------

    def _eviction_loop(self) -> Generator:
        while True:
            yield EVICTION_PERIOD_S
            yield from self.run_periodic_eviction()

    def run_periodic_eviction(self) -> Generator:
        """Evict cold objects: n_access < 5 or idle > 30 min."""
        tracer = self.kernel.tracer
        span = (
            tracer.start("cache.evict_sweep", node=self.node_id)
            if tracer is not None
            else None
        )
        now = self.kernel.now
        for obj in self._local_masters():
            # Never evict very young objects (they may belong to an
            # in-flight pipeline and have simply not been read yet).
            if now - obj.created_at < EVICTION_PERIOD_S:
                continue
            idle = now - obj.t_access
            # §6.3: the sweep targets objects "that have not been
            # recently accessed"; anything read within the last period
            # is left alone regardless of its access count.
            if idle < EVICTION_PERIOD_S:
                continue
            cold = (
                obj.n_access < EVICTION_MIN_ACCESSES
                or idle > EVICTION_MAX_IDLE_S
            )
            if not cold:
                continue
            if obj.flags.get("dirty", False):
                bucket, _sep, name = obj.key.partition("/")
                self.persistor.schedule(
                    bucket,
                    name,
                    obj.value,
                    obj.version,
                    final=bool(obj.flags.get("final")),
                    size=obj.size,
                    create_if_missing=not self.config.strict_consistency,
                )
                continue  # evicted on a later round, once clean
            try:
                yield from self.cluster.delete(obj.key, caller=self.node_id)
                self.metrics.evictions_periodic += 1
            except NoSuchKey:
                pass
        # Re-derive per-tenant usage from the cluster's actual contents
        # (fault paths bypass the object hooks).  Every node's agent
        # runs this sweep; only the first node also decays the
        # proportional-share demand weights, so the decay is applied
        # once per period, not once per node.
        servers = self.cluster.coordinator.servers
        self.tenancy.resync(
            (
                obj
                for server in servers.values()
                if server.up
                for obj in server.master_objects()
            ),
            decay=self.node_id == min(servers),
        )
        if span is not None:
            span.finish()
        self._queue_retarget()

    # -- slack pool (§6.4) ------------------------------------------------

    def _slack_loop(self) -> Generator:
        adjust_every = max(1, int(SLACK_ADJUST_PERIOD_S / CHURN_SAMPLE_PERIOD_S))
        ticks = 0
        while True:
            yield CHURN_SAMPLE_PERIOD_S
            committed = self.invoker.committed_mb
            if self._last_committed_mb is not None:
                self._churn_samples.append(
                    abs(committed - self._last_committed_mb)
                )
            self._last_committed_mb = committed
            ticks += 1
            if ticks % adjust_every == 0 and self._churn_samples:
                churn = sum(self._churn_samples) / len(self._churn_samples)
                self.invoker.slack_mb = max(SLACK_INITIAL_MB, churn)
                self._queue_retarget()
