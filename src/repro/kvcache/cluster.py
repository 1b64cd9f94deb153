"""Data-plane facade over the cache cluster.

All data-plane operations are generator methods driven by the
simulation kernel.  Each takes a ``caller`` node id; operations whose
master copy lives on the caller's node run at RAM speed, others pay the
remote path.

Backup copies and flags dicts are values.  A put stores one replica of
its master on every backup, and the master and that replica share one
flags dict; :meth:`CacheCluster.set_flags` and a promotion store new
objects and dicts rather than change the shared ones.  Only a master's
access counters (``n_access``, ``t_access``) change in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Iterator, List, Optional, Set, Tuple

from repro.kvcache.backend import CacheBackend
from repro.kvcache.coordinator import Coordinator, Placement
from repro.kvcache.errors import (
    CacheError,
    CapacityExceeded,
    NoSuchKey,
    ObjectTooLarge,
)
from repro.kvcache.objects import CacheObject, MAX_OBJECT_SIZE
from repro.kvcache.server import CacheServer, CapacityPool
from repro.sim.kernel import Kernel
from repro.sim.latency import (
    BACKUP_WRITE,
    CACHE_SCALE_EVICT,
    CACHE_SCALE_PLAIN,
    DISK_READ,
    LOCAL_READ,
    LOCAL_WRITE,
    MIGRATION,
    REMOTE_READ,
    REMOTE_WRITE,
)

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


class CacheCluster(CacheBackend):
    """The distributed cache as OFC's rclib sees it: the reference
    implementation of the :class:`~repro.kvcache.backend.CacheBackend`
    contract."""

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
        super().__init__(
            kernel, node_ids, rng=rng, max_object_size=max_object_size
        )
        # Replication cannot exceed the number of other nodes.
        effective_rf = min(replication_factor, len(node_ids) - 1)
        self.coordinator = Coordinator(replication_factor=effective_rf)
        self._pool = CapacityPool()
        for node_id in node_ids:
            self.coordinator.register(CacheServer(node_id, pool=self._pool))
        self.stats = ClusterStats()
        #: Called with ``(now, total_capacity)`` after every resize —
        #: pure accounting (cost integrals), never a schedule change.
        self.on_resize: Optional[Callable] = None
        # Keys whose live replica count fell below the configured
        # factor (down backup at put time, partial recovery, crashed
        # backup node).  ``repair()`` drains this set.
        self._under_replicated: Set[str] = set()

    # -- helpers ---------------------------------------------------------------

    def server(self, node_id: str):
        return self.coordinator.server(node_id)

    @property
    def total_capacity(self) -> int:
        """The servers' summed capacity, kept by their resizes."""
        return self._pool.capacity

    @property
    def total_used(self) -> int:
        return sum(s.used_bytes for s in self.coordinator.servers.values())

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

    def audit(self) -> None:
        """Recompute placement from the servers and raise
        :class:`CacheError` naming what drifted: a master copy its record
        does not place there (or on a down server), a master named as
        its own backup, a named up backup without a copy or with one
        newer than the record, an up server's backup copy of a recorded
        key its record does not name, ``_backup_bytes`` and
        ``total_capacity``."""
        placements = self.coordinator.placements
        drift = []
        capacity = sum(s.capacity for s in self.coordinator.servers.values())
        if self._pool.capacity != capacity:
            drift.append(f"total_capacity {self._pool.capacity} != {capacity}")
        for sid, server in self.coordinator.servers.items():
            for key in server._master:
                record = placements.get(key)
                if not server.up or record is None or record.master != sid:
                    drift.append(f"{key}: master copy on {sid}, unrecorded")
            for key, copy in server._backup.items():
                record = placements.get(key)
                if server.up and record is not None and sid not in record.backups:
                    drift.append(f"{key}: v{copy.version} on {sid}, unnamed")
            held = sum(copy.size for copy in server._backup.values())
            if server._backup_bytes != held:
                drift.append(f"{sid}: _backup_bytes {server._backup_bytes} != {held}")
        for key, record in placements.items():
            if record.master in record.backups:
                drift.append(f"{key}: master {record.master} is also a backup")
            for sid in record.backups:
                server = self.coordinator.servers[sid]
                copy = server._backup.get(key)
                if server.up and (copy is None or copy.version > record.version):
                    version = copy and copy.version
                    drift.append(f"{key}: v{record.version}, {sid} holds v{version}")
        if drift:
            raise CacheError("placement drifted: " + "; ".join(drift))

    def _mark_under_replicated(self, key: str) -> None:
        if self.coordinator.replication_factor <= 0:
            return
        if key not in self._under_replicated:
            self._under_replicated.add(key)
            self.stats.under_replication_events += 1

    def location_of(self, key: str) -> Optional[str]:
        """Node currently holding the master (in-memory) copy, if any."""
        coordinator = self.coordinator
        record = coordinator.placements.get(key)
        if record is not None and key in coordinator.servers[record.master]._master:
            return record.master
        return None

    def objects(self) -> Iterator[Tuple[str, CacheObject]]:
        # Lazy per-server snapshots, in coordinator order.
        for server in self.coordinator.servers.values():
            for obj in server.master_objects():
                yield server.server_id, obj

    def _backup_copies(self, key: str, record: Placement) -> List[CacheObject]:
        """The live backup copies of ``key`` its placement ``record`` names."""
        copies = []
        for backup_id in record.backups:
            backup = self.coordinator.servers[backup_id]
            if backup.up and key in backup._backup:
                copies.append(backup._backup[key])
        return copies

    def _highest_surviving_version(self, key: str, record: Placement) -> int:
        """Best version knowledge for ``key`` after a master loss:
        the coordinator's placement record and any live replica copy."""
        return max(
            [record.version] + [c.version for c in self._backup_copies(key, record)]
        )

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
        A refused put leaves no copy of the key: the superseded value's
        backups would otherwise be promoted by a later recovery and
        served over the write the caller sends to the RSDS instead.
        """
        if size > self.max_object_size:
            raise ObjectTooLarge(f"{key}: {size} bytes")
        coordinator = self.coordinator
        servers = coordinator.servers
        record = coordinator.placements.get(key)
        master_id = None if record is None else record.master
        old = None if record is None else servers[master_id]._master.get(key)
        if old is None:
            master_id = coordinator.choose_master(size, preferred=caller)
            if master_id is None:
                self._drop_replicas(key)
                raise CapacityExceeded(f"no server can fit {size} bytes")
            # A recovery between a promotion and its re-record leaves the
            # master copy on a server the record does not name yet.
            old = servers[master_id]._master.get(key)
        tracer = self.kernel.tracer
        span = (
            tracer.start(
                "kvcache.put",
                caller=caller,
                placement="local" if master_id == caller else "remote",
            )
            if tracer is not None
            else None
        )
        master = servers[master_id]
        version = 1
        if old is not None:
            version = old.version + 1
            master.master_delete(key)
            self._removed(old)
        elif record is not None:
            # The previous master copy died with its node.  Seed the
            # version past the highest surviving replica / coordinator
            # record; restarting at 1 would make ``persist_payload``
            # ordering treat this newer data as stale.
            version = self._highest_surviving_version(key, record) + 1
        if key in master._backup:
            # This server held a backup copy and is becoming the
            # master: drop the stale disk copy so a later promotion
            # cannot resurrect it.
            master.backup_delete(key)
        now = self.kernel.now
        # The one copy of the caller's flags (a caller may keep and
        # update its dict); the master and its replica share this one.
        obj = CacheObject(key, value, size, version, now, 0, now, dict(flags or {}))
        try:
            master.master_put(obj)
        except CapacityExceeded:
            # An overwrite the existing master cannot fit: its old copy
            # is gone already, the backups still hold it.
            self._drop_replicas(key)
            raise
        self._admitted(obj)
        if master_id == caller:
            yield self._delay(LOCAL_WRITE, size)
        else:
            yield self._remote_delay(REMOTE_WRITE, size)
        # Replicate to backups (buffered log writes, issued in parallel:
        # the slowest one bounds the latency, so their order is moot).
        record = coordinator.placements.get(key)
        backup_ids = () if record is None else record.backups
        longest = 0.0
        kept_backups = []
        replica = None  # one value for every backup
        for backup_id in backup_ids or coordinator.choose_backups(key, master_id):
            if backup_id == master_id:
                continue
            backup = servers[backup_id]
            if not backup.up:
                continue
            if replica is None:
                replica = obj.replica()
            backup.backup_put(replica)
            longest = max(longest, BACKUP_WRITE.sample(self.rng, size))
            kept_backups.append(backup_id)
        if longest:
            faults = self.faults
            if faults is not None:
                longest *= faults.network_latency_scale
            yield longest
        coordinator.record_placement(key, master_id, kept_backups, version=version)
        # Down backups silently drop out of the placement; track the
        # key so the repair pass can restore the replication factor.
        if len(kept_backups) < coordinator.replication_factor:
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
        record = self.coordinator.placements.get(key)
        servers = self.coordinator.servers
        obj = None if record is None else servers[record.master]._master.get(key)
        if obj is None:
            self.stats.misses += 1
            if tracer is not None:
                tracer.start("kvcache.get", caller=caller).finish(status="miss")
            raise NoSuchKey(key)
        master_id = record.master
        span = (
            tracer.start(
                "kvcache.get",
                caller=caller,
                status="local" if master_id == caller else "remote",
            )
            if tracer is not None
            else None
        )
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
        return obj

    def peek(self, key: str) -> Optional[CacheObject]:
        """Control-plane read without latency or access accounting."""
        record = self.coordinator.placements.get(key)
        if record is None:
            return None
        return self.coordinator.servers[record.master]._master.get(key)

    def set_flags(self, key: str, **flags: Any) -> None:
        """Update the flags of every copy a promotion could serve: the
        master and its same-version backups (else a cleared ``dirty``
        resurrects after a crash and re-triggers the write-back), or,
        with the master copy dead, the newest surviving backups (else a
        persistor completion between crash and recovery is forgotten).

        Each copy gets a new flags dict (a backup, a new replica); a
        dict or a replica that copies shared stays shared.
        """
        servers = self.coordinator.servers
        record = self.coordinator.placements.get(key)
        if record is None:
            raise NoSuchKey(key)
        # The last flags dict and replica replaced, and their successors.
        old_flags = new_flags = old_copy = new_copy = None
        obj = servers[record.master]._master.get(key)
        if obj is not None:
            old_flags, new_flags = obj.flags, {**obj.flags, **flags}
            obj.flags = new_flags
            version = obj.version
        else:
            version = self._highest_surviving_version(key, record)
        updated = False
        for backup_id in record.backups:
            backup = servers[backup_id]
            copy = backup._backup.get(key) if backup.up else None
            if copy is None or copy.version != version:
                continue
            if copy is not old_copy:
                if copy.flags is not old_flags:
                    old_flags, new_flags = copy.flags, {**copy.flags, **flags}
                old_copy, new_copy = copy, copy.replica(new_flags)
            backup.backup_replace(new_copy)
            updated = True
        if obj is None and not updated:
            raise NoSuchKey(key)

    def delete(self, key: str, caller: str) -> Generator[Any, Any, None]:
        """Remove an object from the cache everywhere (master+backups)."""
        record = self.coordinator.placements.get(key)
        if record is None:
            raise NoSuchKey(key)
        master_id = record.master
        tracer = self.kernel.tracer
        span = (
            tracer.start("kvcache.delete", caller=caller)
            if tracer is not None
            else None
        )
        master = self.coordinator.servers[master_id]
        if key in master._master:
            self._removed(master.master_delete(key))
        self._drop_replicas(key)
        model = LOCAL_WRITE if master_id == caller else REMOTE_WRITE
        yield self._delay(model)
        self.stats.deletes += 1
        if span is not None:
            span.finish()

    def _drop_replicas(self, key: str) -> None:
        """Forget ``key``'s placement and delete its live backup copies
        (a down node's copy is purged when the node restarts)."""
        coordinator = self.coordinator
        record = coordinator.placements.get(key)
        for backup_id in () if record is None else record.backups:
            backup = coordinator.servers[backup_id]
            if backup.up:
                backup.backup_delete(key)
        coordinator.forget(key)
        self._under_replicated.discard(key)

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
        coordinator = self.coordinator
        record = coordinator.placements.get(key)
        old_master = None if record is None else coordinator.servers[record.master]
        obj = None if old_master is None else old_master._master.get(key)
        if obj is None:
            # Unknown, or the master copy is gone (typically its node
            # crashed under a concurrent shrink loop): surface the
            # regular miss the callers already handle, never ServerDown.
            raise NoSuchKey(key)
        new_master = coordinator.choose_new_master(key, obj.size, target)
        if new_master is None:
            return None
        tracer = self.kernel.tracer
        span = (
            tracer.start("kvcache.migrate", source=record.master, bytes=obj.size)
            if tracer is not None
            else None
        )
        # Promote from the new master's local (buffered) backup copy and
        # drop the old RAM copy.  No payload crosses the network, and
        # backup segments are RAM-buffered, so the whole hand-off is
        # covered by the MIGRATION model (0.18 ms per 8 MB, §7.2.1).
        # The new master takes the backup's size and age and the old
        # master's value, version, access counters and flags.
        backup = new_master._backup[key]
        new_master.promote(
            key,
            CacheObject(
                key, obj.value, backup.size, obj.version, backup.created_at,
                obj.n_access, obj.t_access, obj.flags,
            ),
        )
        old_master.demote(key)
        coordinator.record_master_change(key, new_master.server_id)
        yield self._remote_delay(MIGRATION, obj.size)
        self.stats.migrations += 1
        self.stats.migrated_bytes += obj.size
        if span is not None:
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
        """Drop a key no surviving copy can serve (RSDS still has it),
        with the backup copies that had no room to be promoted."""
        self._drop_replicas(key)
        self.stats.lost_objects += 1

    def _reconcile_flags(self, key: str, obj) -> None:
        """Reconcile a freshly promoted copy's flags with its peers.

        Flags only transition one way between versions (the persistor
        clears ``dirty`` after the payload lands in the RSDS), so a
        clean surviving copy at the same version proves the persist
        completed and the promoted copy must not re-trigger it.
        """
        record = self.coordinator.placements.get(key)
        if record is not None and obj.flags.get("dirty", False) and any(
            copy.version == obj.version and not copy.flags.get("dirty", True)
            for copy in self._backup_copies(key, record)
        ):
            obj.flags = {**obj.flags, "dirty": False}

    def _top_up_backups(
        self,
        key: str,
        obj: CacheObject,
        master_id: str,
        skip: Optional[str] = None,
    ) -> Generator[Any, Any, int]:
        """Re-replicate ``obj`` (the master copy on ``master_id``) until
        ``key`` has the configured number of live backups, never onto
        ``skip``; records the placement and returns how many are still
        missing."""
        coordinator = self.coordinator
        backups = {
            b
            for b in coordinator.backups_of(key)
            if b != master_id and coordinator.server(b).backup_has(key)
        }
        missing = coordinator.replication_factor - len(backups)
        replica = None  # one value for every new backup
        for backup_id in coordinator.choose_backups(key, master_id):
            if missing <= 0:
                break
            if backup_id in backups or backup_id == skip:
                continue
            backup = coordinator.server(backup_id)
            if not backup.up:  # crashed since choose_backups
                continue
            if replica is None:
                replica = obj.replica()
            try:
                backup.backup_put(replica)
            except CapacityExceeded:
                continue
            yield self._remote_delay(BACKUP_WRITE, obj.size)
            backups.add(backup_id)
            missing -= 1
        coordinator.record_placement(
            key, master_id, sorted(backups), version=obj.version
        )
        return missing

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
            # Sorted ids: the version/free-bytes tie below goes to the
            # lowest, whatever the interpreter's hash seed.
            backups = [
                self.coordinator.server(b)
                for b in sorted(self.coordinator.backups_of(key))
            ]
            copies = [s.backup_peek(key) for s in backups]
            obj_size = next((c.size for c in copies if c is not None), 0)
            candidates = [s for s in backups if s.can_promote(key, obj_size)]
            if not candidates:
                self._lose(key)
                continue
            yield self._delay(DISK_READ, obj_size)
            # Another node may have crashed while the disk read was in
            # flight: re-validate before touching any copy.
            candidates = [s for s in candidates if s.can_promote(key, obj_size)]
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
            # The crashed node holds no copy any more (and may restart
            # mid-loop): rebuild the backup set from the surviving
            # replicas and re-replicate elsewhere.
            missing = yield from self._top_up_backups(
                key, obj, new_master.server_id, skip=node_id
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
        tracer = self.kernel.tracer
        span = tracer.start("kvcache.repair") if tracer is not None else None
        repaired = 0
        for key in sorted(self._under_replicated):
            master_id = self.location_of(key)
            if master_id is None:
                # The master copy is gone too: nothing to replicate
                # from; a recovery pass or a re-put handles the key.
                self._under_replicated.discard(key)
                continue
            obj = self.coordinator.server(master_id).master_get(key)
            missing = yield from self._top_up_backups(key, obj, master_id)
            if missing <= 0:
                self._under_replicated.discard(key)
                repaired += 1
        self.stats.repairs += 1
        self.stats.repaired_objects += repaired
        if span is not None:
            span.finish(repaired=repaired)
        return repaired
