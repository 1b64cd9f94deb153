"""Per-node cache storage server (master + backup roles)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.kvcache.errors import CacheError, CapacityExceeded, NoSuchKey, ServerDown
from repro.kvcache.log import ObjectLog
from repro.kvcache.objects import CacheObject


@dataclass
class ServerStats:
    promotions: int = 0


@dataclass
class CapacityPool:
    """The summed ``capacity`` of the servers that share it, moved by
    each one's :meth:`CacheServer.resize` (ints: exactly the sum)."""

    capacity: int = 0


class CacheServer:
    """One storage server: a RAM master log plus an on-disk backup area.

    The memory pool's ``capacity`` is the OFC-controlled quantity: the
    CacheAgent grows it with memory hoarded from sandboxes and shrinks
    it when sandboxes need the memory back (§6.4).

    The cluster reads ``_master`` and ``_backup`` directly; writes go
    through the methods below.  A down server's ``_master`` is empty
    (``crash`` drops it), so only a ``_backup`` read tests ``up``.

    A backup copy is a value: nothing changes it once stored, so the
    backups of one put share a single copy, and a flag update or a
    promotion stores a new object instead.
    """

    def __init__(
        self,
        server_id: str,
        capacity: int = 0,
        disk_capacity: int = 480 * 10**9,
        pool: Optional[CapacityPool] = None,
    ):
        self.server_id = server_id
        self.capacity = capacity
        #: The cluster-wide capacity total this server's resizes move.
        self.pool = pool
        if pool is not None:
            pool.capacity += capacity
        self.disk_capacity = disk_capacity
        self.up = True
        self.log = ObjectLog()
        self._master: Dict[str, CacheObject] = {}
        self._backup: Dict[str, CacheObject] = {}
        #: Running sum of backup copy sizes (exact: ints); object sizes
        #: are immutable, so put/delete/promote keep it in sync.
        self._backup_bytes = 0
        self.stats = ServerStats()

    # -- capacity -----------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        """Allocated master-log footprint (what capacity must cover)."""
        return self.log.footprint_bytes

    @property
    def live_bytes(self) -> int:
        return self.log.live_bytes

    @property
    def free_bytes(self) -> int:
        return self.capacity - self.log.footprint_bytes

    @property
    def disk_used_bytes(self) -> int:
        return self._backup_bytes

    def resize(self, capacity: int) -> None:
        """Set the memory pool size; shrinking below the current
        footprint first runs the log cleaner, and fails if the live data
        still does not fit (the CacheAgent must evict/migrate first)."""
        if capacity < 0:
            raise CacheError("capacity must be non-negative")
        if capacity < self.log.footprint_bytes:
            self.log.clean()
        if capacity < self.log.footprint_bytes:
            raise CapacityExceeded(
                f"{self.server_id}: cannot shrink to {capacity} with "
                f"{self.log.footprint_bytes} bytes in the log"
            )
        if self.pool is not None:
            self.pool.capacity += capacity - self.capacity
        self.capacity = capacity

    def can_fit(self, size: int) -> bool:
        """Whether a master put of ``size`` bytes fits (after cleaning)."""
        log = self.log
        capacity = self.capacity
        return (
            size <= capacity - log.footprint_bytes
            or log.live_bytes + size <= capacity
        )

    # -- master role ---------------------------------------------------------
    # Every data-plane method below tests ``up`` inline rather than
    # through a helper: a master hand-off calls five of them per object.

    def master_put(self, obj: CacheObject) -> None:
        if not self.up:
            raise ServerDown(self.server_id)
        size = obj.size
        log = self.log
        if size > self.capacity - log.footprint_bytes:
            # Only cleaning can make it fit — if the live data allows.
            if log.live_bytes + size > self.capacity:
                raise CapacityExceeded(
                    f"{self.server_id}: {size} bytes do not fit "
                    f"(free={self.free_bytes})"
                )
            log.clean()
        log.append(obj.key, size)
        self._master[obj.key] = obj

    def master_get(self, key: str) -> CacheObject:
        if not self.up:
            raise ServerDown(self.server_id)
        try:
            obj = self._master[key]
        except KeyError:
            raise NoSuchKey(key) from None
        return obj

    def master_has(self, key: str) -> bool:
        return self.up and key in self._master

    def master_delete(self, key: str) -> CacheObject:
        if not self.up:
            raise ServerDown(self.server_id)
        try:
            obj = self._master.pop(key)
        except KeyError:
            raise NoSuchKey(key) from None
        self.log.delete(key)
        return obj

    def master_keys(self):
        return list(self._master.keys())

    def master_objects(self):
        return list(self._master.values())

    # -- backup role ----------------------------------------------------------

    def backup_put(self, obj: CacheObject) -> None:
        if not self.up:
            raise ServerDown(self.server_id)
        if self._backup_bytes + obj.size > self.disk_capacity:
            raise CapacityExceeded(f"{self.server_id}: backup disk full")
        prev = self._backup.get(obj.key)
        if prev is not None:
            self._backup_bytes -= prev.size
        self._backup[obj.key] = obj
        self._backup_bytes += obj.size

    def backup_get(self, key: str) -> CacheObject:
        if not self.up:
            raise ServerDown(self.server_id)
        try:
            return self._backup[key]
        except KeyError:
            raise NoSuchKey(key) from None

    def backup_replace(self, obj: CacheObject) -> None:
        """Swap the backup copy of ``obj.key`` for ``obj``, a new value
        of it with the same size (a flag update)."""
        self._backup[obj.key] = obj

    def backup_has(self, key: str) -> bool:
        return self.up and key in self._backup

    def promotion_room(self, key: str, size: int) -> Optional[int]:
        """This server's free bytes when it can take over ``key``'s
        master copy (``size`` bytes) from its own backup copy, else
        None: the election's test (``can_fit``'s, inline) and its score
        in one call."""
        if not self.up or key not in self._backup:
            return None
        free = self.capacity - self.log.footprint_bytes
        if size <= free or self.log.live_bytes + size <= self.capacity:
            return free
        return None

    def can_promote(self, key: str, size: int) -> bool:
        """Whether this server can take over ``key``'s master copy."""
        return self.promotion_room(key, size) is not None

    def backup_peek(self, key: str) -> Optional[CacheObject]:
        """Control-plane read of a backup copy (None when down/absent)."""
        if not self.up:
            return None
        return self._backup.get(key)

    def backup_delete(self, key: str) -> Optional[CacheObject]:
        if not self.up:
            raise ServerDown(self.server_id)
        obj = self._backup.pop(key, None)
        if obj is not None:
            self._backup_bytes -= obj.size
        return obj

    def backup_keys(self):
        return list(self._backup.keys())

    # -- promotion (migration / recovery) --------------------------------------

    def promote(
        self, key: str, master: Optional[CacheObject] = None
    ) -> CacheObject:
        """Turn this server's backup copy of ``key`` into the master
        copy: ``master`` (built from the backup copy by the caller), or
        a replica of the backup copy.  Never the backup object itself:
        other servers may hold the same one, and a master changes as it
        is read."""
        if not self.up:
            raise ServerDown(self.server_id)
        obj = self._backup.get(key)
        if obj is None:
            raise NoSuchKey(key)
        if master is None:
            master = obj.replica()
        # Put first: a refused promotion must leave the backup copy.
        self.master_put(master)
        del self._backup[key]
        self._backup_bytes -= obj.size
        self.stats.promotions += 1
        return master

    def demote(self, key: str) -> CacheObject:
        """Drop the master copy from RAM, keep an on-disk backup copy."""
        obj = self.master_delete(key)
        self.backup_put(obj)
        return obj

    # -- failures ---------------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop: all RAM contents are lost, disk contents survive."""
        self.up = False
        for key in self.master_keys():
            self._master.pop(key)
            self.log.delete(key)

    def restart(self) -> None:
        self.up = True
