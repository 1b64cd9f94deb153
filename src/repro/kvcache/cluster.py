"""Data-plane facade over the cache cluster.

All operations are generator methods driven by the simulation kernel.
Each takes a ``caller`` node id; operations whose master copy lives on
the caller's node run at RAM speed, others pay the remote path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Set

from repro.kvcache.coordinator import Coordinator
from repro.kvcache.errors import (
    CacheError,
    CapacityExceeded,
    NoSuchKey,
    ObjectTooLarge,
)
from repro.kvcache.objects import (
    BACKUP_WRITE,
    CacheObject,
    DISK_READ,
    LOCAL_READ,
    LOCAL_WRITE,
    MAX_OBJECT_SIZE,
    REMOTE_READ,
    REMOTE_WRITE,
)
from repro.kvcache.server import CacheServer
from repro.sim.kernel import Kernel
from repro.sim.latency import CACHE_SCALE_EVICT, CACHE_SCALE_PLAIN, MIGRATION


@dataclass
class ClusterStats:
    puts: int = 0
    gets_local: int = 0
    gets_remote: int = 0
    misses: int = 0
    deletes: int = 0
    migrations: int = 0
    migrated_bytes: int = 0
    recoveries: int = 0
    recovered_objects: int = 0
    resizes: int = 0
    restarts: int = 0
    backups_purged: int = 0
    lost_objects: int = 0
    under_replication_events: int = 0
    repairs: int = 0
    repaired_objects: int = 0

    def snapshot(self) -> Dict[str, int]:
        return dict(self.__dict__)


class CacheCluster:
    """The distributed cache as OFC's rclib sees it."""

    def __init__(
        self,
        kernel: Kernel,
        node_ids: List[str],
        replication_factor: int = 2,
        rng=None,
        max_object_size: int = MAX_OBJECT_SIZE,
    ):
        if not node_ids:
            raise CacheError("cluster needs at least one node")
        self.kernel = kernel
        self.rng = rng
        self.max_object_size = max_object_size
        # Replication cannot exceed the number of other nodes.
        effective_rf = min(replication_factor, len(node_ids) - 1)
        self.coordinator = Coordinator(replication_factor=effective_rf)
        for node_id in node_ids:
            self.coordinator.register(CacheServer(node_id))
        self.stats = ClusterStats()
        #: Injected fault state (:class:`repro.sim.faults.FaultState`);
        #: ``None`` keeps the data plane on the zero-cost path.
        self.faults = None
        #: Object-lifecycle hooks (per-tenant accounting): called with a
        #: :class:`CacheObject` when a master copy is placed or removed
        #: on the regular data plane.  The fault paths (crash/recover)
        #: intentionally skip them — the accounting resyncs from a scan.
        self.on_object_admitted: Optional[Callable] = None
        self.on_object_removed: Optional[Callable] = None
        #: Called with ``(now, total_capacity)`` after every resize —
        #: pure accounting (cost integrals), never a schedule change.
        self.on_resize: Optional[Callable] = None
        #: Configured aggregate ceiling for quota arithmetic.  The live
        #: ``total_capacity`` can legitimately sit above the configured
        #: cap (scale_up never sizes below what the backup log already
        #: holds), so per-tenant quotas must divide the *clamped*
        #: figure or they sum past the operator's cap.
        self.quota_cap_bytes: Optional[int] = None
        # Keys whose live replica count fell below the configured
        # factor (down backup at put time, partial recovery, crashed
        # backup node).  ``repair()`` drains this set.
        self._under_replicated: Set[str] = set()

    # -- helpers ---------------------------------------------------------------

    def server(self, node_id: str):
        return self.coordinator.server(node_id)

    def _delay(self, model, nbytes: int = 0) -> float:
        # Bare-delay float for the caller to yield: bit-identical to the
        # kernel.timeout() it replaced (same queue slot, same sequence
        # number — see Process._resume's float arm) without the Timeout
        # allocation and callback registration per cache op.
        return model.sample(self.rng, nbytes)

    def _remote_delay(self, model, nbytes: int = 0) -> float:
        """Delay for an inter-node op; scaled during slow-network faults."""
        duration = model.sample(self.rng, nbytes)
        faults = self.faults
        if faults is not None:
            duration *= faults.network_latency_scale
        return duration

    @property
    def total_capacity(self) -> int:
        return sum(s.capacity for s in self.coordinator.servers.values())

    @property
    def total_used(self) -> int:
        return sum(s.used_bytes for s in self.coordinator.servers.values())

    @property
    def quota_capacity(self) -> int:
        """Capacity base for tenant-quota arithmetic: the live total,
        clamped at the configured aggregate cap (if any)."""
        total = self.total_capacity
        if self.quota_cap_bytes is None:
            return total
        return min(total, self.quota_cap_bytes)

    @property
    def under_replicated_keys(self) -> Set[str]:
        """Keys currently holding fewer live backups than configured."""
        return set(self._under_replicated)

    def stats_snapshot(self) -> Dict[str, int]:
        """Counter snapshot plus availability gauges (obs collector)."""
        snap = self.stats.snapshot()
        snap["under_replicated"] = len(self._under_replicated)
        snap["live_servers"] = len(self.coordinator.live_servers())
        return snap

    def _mark_under_replicated(self, key: str) -> None:
        if self.coordinator.replication_factor <= 0:
            return
        if key not in self._under_replicated:
            self._under_replicated.add(key)
            self.stats.under_replication_events += 1

    def contains(self, key: str) -> bool:
        master_id = self.coordinator.master_of(key)
        if master_id is None:
            return False
        return self.coordinator.server(master_id).master_has(key)

    def location_of(self, key: str) -> Optional[str]:
        """Node currently holding the master (in-memory) copy, if any."""
        master_id = self.coordinator.master_of(key)
        if master_id is None:
            return None
        server = self.coordinator.server(master_id)
        return master_id if server.master_has(key) else None

    def _highest_surviving_version(self, key: str) -> int:
        """Best version knowledge for ``key`` after a master loss:
        the coordinator's placement record and any live replica copy."""
        best = self.coordinator.version_of(key)
        for backup_id in self.coordinator.backups_of(key):
            copy = self.coordinator.server(backup_id).backup_peek(key)
            if copy is not None and copy.version > best:
                best = copy.version
        return best

    # -- data plane ---------------------------------------------------------------

    def put(
        self,
        key: str,
        value: Any,
        size: int,
        caller: str,
        flags: Optional[Dict[str, Any]] = None,
    ) -> Generator[Any, Any, str]:
        """Write an object; returns the master node id.

        Placement prefers the caller's node (data locality for the
        sandbox that produced the object).  Raises
        :class:`ObjectTooLarge` or :class:`CapacityExceeded` when the
        object cannot be admitted; OFC then falls through to the RSDS.
        """
        if size > self.max_object_size:
            raise ObjectTooLarge(f"{key}: {size} bytes")
        existing_master = self.location_of(key)
        master_id = existing_master or self.coordinator.choose_master(
            size, preferred=caller
        )
        if master_id is None:
            raise CapacityExceeded(f"no server can fit {size} bytes")
        tracer = self.kernel.tracer
        span = (
            tracer.start(
                "kvcache.put",
                caller=caller,
                placement="local" if master_id == caller else "remote",
            )
            if tracer.enabled
            else None
        )
        master = self.coordinator.server(master_id)
        version = 1
        if master.master_has(key):
            old = master.master_get(key)
            version = old.version + 1
            master.master_delete(key)
            if self.on_object_removed is not None:
                self.on_object_removed(old)
        elif self.coordinator.holds(key):
            # The previous master copy died with its node.  Seed the
            # version past the highest surviving replica / coordinator
            # record; restarting at 1 would make ``persist_payload``
            # ordering treat this newer data as stale.
            version = self._highest_surviving_version(key) + 1
        if master.backup_has(key):
            # This server held a backup copy and is becoming the
            # master: drop the stale disk copy so a later promotion
            # cannot resurrect it.
            master.backup_delete(key)
        obj = CacheObject(
            key=key,
            value=value,
            size=size,
            version=version,
            created_at=self.kernel.now,
            t_access=self.kernel.now,
            flags=dict(flags or {}),
        )
        master.master_put(obj)
        if self.on_object_admitted is not None:
            self.on_object_admitted(obj)
        if master_id == caller:
            yield self._delay(LOCAL_WRITE, size)
        else:
            yield self._remote_delay(REMOTE_WRITE, size)
        # Replicate to backups (buffered log writes, issued in parallel:
        # the slowest one bounds the latency).
        backup_ids = self.coordinator.backups_of(key) or set(
            self.coordinator.choose_backups(key, master_id)
        )
        longest = 0.0
        kept_backups = []
        for backup_id in backup_ids:
            if backup_id == master_id:
                continue
            backup = self.coordinator.server(backup_id)
            if not backup.up:
                continue
            backup.backup_put(obj.copy())
            longest = max(longest, BACKUP_WRITE.sample(self.rng, size))
            kept_backups.append(backup_id)
        if longest:
            faults = self.faults
            if faults is not None:
                longest *= faults.network_latency_scale
            yield longest
        self.coordinator.record_placement(
            key, master_id, kept_backups, version=version
        )
        # Down backups silently drop out of the placement; track the
        # key so the repair pass can restore the replication factor.
        if len(kept_backups) < self.coordinator.replication_factor:
            self._mark_under_replicated(key)
        else:
            self._under_replicated.discard(key)
        self.stats.puts += 1
        if span is not None:
            span.finish(bytes=size)
        return master_id

    def get(self, key: str, caller: str) -> Generator[Any, Any, CacheObject]:
        """Read an object's master copy; raises NoSuchKey on miss."""
        tracer = self.kernel.tracer
        master_id = self.location_of(key)
        if master_id is None:
            self.stats.misses += 1
            if tracer.enabled:
                tracer.start("kvcache.get", caller=caller).finish(status="miss")
            raise NoSuchKey(key)
        span = (
            tracer.start(
                "kvcache.get",
                caller=caller,
                status="local" if master_id == caller else "remote",
            )
            if tracer.enabled
            else None
        )
        master = self.coordinator.server(master_id)
        obj = master.master_get(key)
        if master_id == caller:
            yield self._delay(LOCAL_READ, obj.size)
        else:
            yield self._remote_delay(REMOTE_READ, obj.size)
        obj.n_access += 1
        obj.t_access = self.kernel.now
        if master_id == caller:
            self.stats.gets_local += 1
        else:
            self.stats.gets_remote += 1
        if span is not None:
            span.finish(bytes=obj.size)
        return CacheObject(
            key=obj.key,
            value=obj.value,
            size=obj.size,
            version=obj.version,
            created_at=obj.created_at,
            n_access=obj.n_access,
            t_access=obj.t_access,
            flags=dict(obj.flags),
        )

    def peek(self, key: str) -> Optional[CacheObject]:
        """Control-plane read without latency or access accounting."""
        master_id = self.location_of(key)
        if master_id is None:
            return None
        return self.coordinator.server(master_id).master_get(key)

    def set_flags(self, key: str, **flags: Any) -> None:
        obj = self.peek(key)
        if obj is None:
            # The master copy died, but surviving replicas may still be
            # promoted later: land the update on them (else a persistor
            # completion between crash and recovery is forgotten, and
            # the promoted copy re-triggers the write-back).
            if not self.coordinator.holds(key):
                raise NoSuchKey(key)
            version = self._highest_surviving_version(key)
            updated = False
            for backup_id in self.coordinator.backups_of(key):
                copy = self.coordinator.server(backup_id).backup_peek(key)
                if copy is not None and copy.version == version:
                    copy.flags.update(flags)
                    updated = True
            if not updated:
                raise NoSuchKey(key)
            return
        obj.flags.update(flags)
        # Propagate to live backup copies of the same version: a
        # post-crash promotion must see current flags, or a cleared
        # ``dirty`` resurrects and re-triggers the write-back (and a
        # master-only ``dirty`` set would be lost with the master).
        for backup_id in self.coordinator.backups_of(key):
            copy = self.coordinator.server(backup_id).backup_peek(key)
            if copy is not None and copy.version == obj.version:
                copy.flags.update(flags)

    def delete(self, key: str, caller: str) -> Generator[Any, Any, None]:
        """Remove an object from the cache everywhere (master+backups)."""
        master_id = self.coordinator.master_of(key)
        if master_id is None:
            raise NoSuchKey(key)
        tracer = self.kernel.tracer
        span = (
            tracer.start("kvcache.delete", caller=caller)
            if tracer.enabled
            else None
        )
        master = self.coordinator.server(master_id)
        if master.master_has(key):
            removed = master.master_get(key)
            master.master_delete(key)
            if self.on_object_removed is not None:
                self.on_object_removed(removed)
        for backup_id in self.coordinator.backups_of(key):
            backup = self.coordinator.server(backup_id)
            if backup.up:
                backup.backup_delete(key)
        self.coordinator.forget(key)
        self._under_replicated.discard(key)
        model = LOCAL_WRITE if master_id == caller else REMOTE_WRITE
        yield self._delay(model)
        self.stats.deletes += 1
        if span is not None:
            span.finish()

    # -- scaling primitives -----------------------------------------------------------

    def scale_up(self, node_id: str, extra_bytes: int) -> Generator[Any, Any, int]:
        """Grow a node's memory pool; returns the new capacity."""
        if extra_bytes < 0:
            raise CacheError("extra_bytes must be non-negative")
        server = self.coordinator.server(node_id)
        try:
            server.resize(server.capacity + extra_bytes)
        except CapacityExceeded:
            # Backup replication appends to the log without a capacity
            # check, so the log can sit above the configured capacity;
            # a small grow must not fail because of that.  Compact the
            # garbage and never size below what the log actually holds.
            server.log.clean()
            server.resize(
                max(server.capacity + extra_bytes, server.used_bytes)
            )
        yield self._delay(CACHE_SCALE_PLAIN)
        self.stats.resizes += 1
        if self.on_resize is not None:
            self.on_resize(self.kernel.now, self.total_capacity)
        return server.capacity

    def scale_down(
        self, node_id: str, new_capacity: int, evicting: bool = False
    ) -> Generator[Any, Any, int]:
        """Shrink a node's pool to ``new_capacity``.

        The caller (OFC's CacheAgent) must have made room first via
        eviction/migration; this op only pays the control latency
        (§7.2.1: ~289 µs plain, ~373 µs with eviction).
        """
        server = self.coordinator.server(node_id)
        server.resize(new_capacity)
        model = CACHE_SCALE_EVICT if evicting else CACHE_SCALE_PLAIN
        yield self._delay(model)
        self.stats.resizes += 1
        if self.on_resize is not None:
            self.on_resize(self.kernel.now, self.total_capacity)
        return server.capacity

    def migrate_master(
        self, key: str, target: Optional[str] = None
    ) -> Generator[Any, Any, Optional[str]]:
        """Optimized master hand-off (§6.4).

        A new master is elected among the *backup* nodes (which already
        hold an on-disk copy), the object is loaded from the new
        master's local disk, and the old master demotes itself to a
        backup.  No inter-node payload transfer occurs.  Returns the new
        master id, or None when no backup can take over.
        """
        master_id = self.coordinator.master_of(key)
        if master_id is None:
            raise NoSuchKey(key)
        old_master = self.coordinator.server(master_id)
        if not old_master.master_has(key):
            # The master copy is gone (typically its node crashed under
            # a concurrent shrink loop): surface the regular miss the
            # callers already handle, never ServerDown.
            raise NoSuchKey(key)
        obj = old_master.master_get(key)
        # Sorted ids: backups with equal free bytes tie in ``max`` below,
        # and a set's order moves with the interpreter's hash seed.
        candidates = [
            self.coordinator.server(b)
            for b in sorted(self.coordinator.backups_of(key))
            if (target is None or b == target)
        ]
        candidates = [
            s
            for s in candidates
            if s.up and s.backup_has(key) and s.can_fit(obj.size)
        ]
        if not candidates:
            return None
        span = self.kernel.tracer.start(
            "kvcache.migrate", source=master_id, bytes=obj.size
        )
        new_master = max(candidates, key=lambda s: s.free_bytes)
        # Promote from the new master's local (buffered) backup copy and
        # drop the old RAM copy.  No payload crosses the network, and
        # backup segments are RAM-buffered, so the whole hand-off is
        # covered by the MIGRATION model (0.18 ms per 8 MB, §7.2.1).
        promoted = new_master.promote(key)
        promoted.value = obj.value
        promoted.version = obj.version
        promoted.n_access = obj.n_access
        promoted.t_access = obj.t_access
        promoted.flags = dict(obj.flags)
        old_master.demote(key)
        self.coordinator.record_master_change(key, new_master.server_id)
        yield self._remote_delay(MIGRATION, obj.size)
        self.stats.migrations += 1
        self.stats.migrated_bytes += obj.size
        span.finish(target=new_master.server_id)
        return new_master.server_id

    # -- failures -----------------------------------------------------------------

    def crash(self, node_id: str) -> None:
        """Fail-stop a node's cache server (RAM lost, disk survives)."""
        self.coordinator.server(node_id).crash()
        # Every key the node backed just lost a replica.
        for key in self.coordinator.keys_backed_by(node_id):
            self._mark_under_replicated(key)

    def restart(self, node_id: str) -> int:
        """Bring a crashed server back up; purge stale disk backups.

        While the node was down the coordinator re-placed (or forgot)
        some of the keys it backed.  Those disk copies are both a
        disk-space leak and a stale-promotion hazard, so every backup
        no longer referenced by the coordinator is dropped on restart.
        Returns the number of purged copies.
        """
        server = self.coordinator.server(node_id)
        server.restart()
        purged = 0
        for key in server.backup_keys():
            if (
                not self.coordinator.holds(key)
                or node_id not in self.coordinator.backups_of(key)
            ):
                server.backup_delete(key)
                purged += 1
        self.stats.restarts += 1
        self.stats.backups_purged += purged
        return purged

    def _lose(self, key: str) -> None:
        """Drop a key whose every copy is gone (RSDS still has it)."""
        self.coordinator.forget(key)
        self._under_replicated.discard(key)
        self.stats.lost_objects += 1

    def _reconcile_flags(self, key: str, obj) -> None:
        """Reconcile a freshly promoted copy's flags with its peers.

        Flags only transition one way between versions (the persistor
        clears ``dirty`` after the payload lands in the RSDS), so a
        clean surviving copy at the same version proves the persist
        completed and the promoted copy must not re-trigger it.
        """
        if not obj.flags.get("dirty", False):
            return
        for backup_id in self.coordinator.backups_of(key):
            copy = self.coordinator.server(backup_id).backup_peek(key)
            if (
                copy is not None
                and copy.version == obj.version
                and not copy.flags.get("dirty", True)
            ):
                obj.flags["dirty"] = False
                return

    def recover(self, node_id: str) -> Generator[Any, Any, int]:
        """Recover the master copies a crashed node held, by promoting
        backup copies on the surviving nodes (RAMCloud fast recovery).

        Returns the number of objects recovered; objects whose every
        backup is also down are lost from the cache (they still exist in
        the RSDS or are re-created by retried invocations).  The loop
        tolerates further crashes while it runs: every candidate set is
        re-validated after a simulated delay.
        """
        recovered = 0
        for key in self.coordinator.keys_mastered_by(node_id):
            # Sorted for the same reason as in migrate_master.
            candidates = [
                self.coordinator.server(b)
                for b in sorted(self.coordinator.backups_of(key))
            ]
            candidates = [s for s in candidates if s.up and s.backup_has(key)]
            obj_size = candidates[0].backup_get(key).size if candidates else 0
            candidates = [s for s in candidates if s.can_fit(obj_size)]
            if not candidates:
                self._lose(key)
                continue
            yield self._delay(DISK_READ, obj_size)
            # Another node may have crashed while the disk read was in
            # flight: re-validate before touching any copy.
            candidates = [
                s
                for s in candidates
                if s.up and s.backup_has(key) and s.can_fit(obj_size)
            ]
            if not candidates:
                self._lose(key)
                continue
            # Promote the highest surviving version (a backup that was
            # down during an update trails its peers), breaking ties
            # toward the freest server.
            new_master = max(
                candidates,
                key=lambda s: (s.backup_get(key).version, s.free_bytes),
            )
            obj = new_master.promote(key)
            self._reconcile_flags(key, obj)
            # The crashed node holds no copy any more: rebuild the backup
            # set from the surviving replicas and re-replicate up to the
            # configured factor.
            surviving = {
                b
                for b in self.coordinator.backups_of(key)
                if b != new_master.server_id
                and self.coordinator.server(b).up
                and self.coordinator.server(b).backup_has(key)
            }
            missing = self.coordinator.replication_factor - len(surviving)
            if missing > 0:
                for backup_id in self.coordinator.choose_backups(
                    key, new_master.server_id
                ):
                    if missing <= 0:
                        break
                    if backup_id in surviving or backup_id == node_id:
                        continue
                    backup = self.coordinator.server(backup_id)
                    if not backup.up:  # crashed since choose_backups
                        continue
                    try:
                        backup.backup_put(obj.copy())
                    except CapacityExceeded:
                        continue
                    yield self._remote_delay(BACKUP_WRITE, obj.size)
                    surviving.add(backup_id)
                    missing -= 1
            self.coordinator.record_placement(
                key, new_master.server_id, sorted(surviving), version=obj.version
            )
            if missing > 0:
                self._mark_under_replicated(key)
            else:
                self._under_replicated.discard(key)
            recovered += 1
        self.stats.recoveries += 1
        self.stats.recovered_objects += recovered
        return recovered

    def repair(self) -> Generator[Any, Any, int]:
        """Re-replicate under-replicated keys up to the configured
        factor (run after a crashed node rejoins, or opportunistically).
        Returns the number of keys brought back to full replication.
        """
        span = self.kernel.tracer.start("kvcache.repair")
        repaired = 0
        for key in sorted(self._under_replicated):
            master_id = self.location_of(key)
            if master_id is None:
                # The master copy is gone too: nothing to replicate
                # from; a recovery pass or a re-put handles the key.
                self._under_replicated.discard(key)
                continue
            obj = self.coordinator.server(master_id).master_get(key)
            current = {
                b
                for b in self.coordinator.backups_of(key)
                if b != master_id and self.coordinator.server(b).backup_has(key)
            }
            missing = self.coordinator.replication_factor - len(current)
            for backup_id in self.coordinator.choose_backups(key, master_id):
                if missing <= 0:
                    break
                if backup_id in current:
                    continue
                backup = self.coordinator.server(backup_id)
                if not backup.up:
                    continue
                try:
                    backup.backup_put(obj.copy())
                except CapacityExceeded:
                    continue
                yield self._remote_delay(BACKUP_WRITE, obj.size)
                current.add(backup_id)
                missing -= 1
            self.coordinator.record_placement(
                key, master_id, sorted(current), version=obj.version
            )
            if missing <= 0:
                self._under_replicated.discard(key)
                repaired += 1
        self.stats.repairs += 1
        self.stats.repaired_objects += repaired
        span.finish(repaired=repaired)
        return repaired
