"""Per-node cache storage server (master + backup roles)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.kvcache.errors import CacheError, CapacityExceeded, NoSuchKey, ServerDown
from repro.kvcache.log import ObjectLog
from repro.kvcache.objects import CacheObject


@dataclass
class ServerStats:
    master_puts: int = 0
    master_gets: int = 0
    backup_puts: int = 0
    promotions: int = 0
    evictions: int = 0
    resizes: int = 0


class CacheServer:
    """One storage server: a RAM master log plus an on-disk backup area.

    The memory pool's ``capacity`` is the OFC-controlled quantity: the
    CacheAgent grows it with memory hoarded from sandboxes and shrinks
    it when sandboxes need the memory back (§6.4).
    """

    def __init__(
        self, server_id: str, capacity: int = 0, disk_capacity: int = 480 * 10**9
    ):
        self.server_id = server_id
        self.capacity = capacity
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
        self.capacity = capacity
        self.stats.resizes += 1

    def can_fit(self, size: int) -> bool:
        """Whether a master put of ``size`` bytes fits (after cleaning)."""
        log = self.log
        capacity = self.capacity
        return (
            size <= capacity - log.footprint_bytes
            or log.live_bytes + size <= capacity
        )

    # -- master role ---------------------------------------------------------

    def _check_up(self) -> None:
        if not self.up:
            raise ServerDown(self.server_id)

    def master_put(self, obj: CacheObject) -> None:
        self._check_up()
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
        self.stats.master_puts += 1

    def master_get(self, key: str) -> CacheObject:
        self._check_up()
        try:
            obj = self._master[key]
        except KeyError:
            raise NoSuchKey(key) from None
        self.stats.master_gets += 1
        return obj

    def master_has(self, key: str) -> bool:
        return self.up and key in self._master

    def master_delete(self, key: str) -> CacheObject:
        self._check_up()
        try:
            obj = self._master.pop(key)
        except KeyError:
            raise NoSuchKey(key) from None
        self.log.delete(key)
        self.stats.evictions += 1
        return obj

    def master_keys(self):
        return list(self._master.keys())

    def master_objects(self):
        return list(self._master.values())

    # -- backup role ----------------------------------------------------------

    def backup_put(self, obj: CacheObject) -> None:
        self._check_up()
        if self.disk_used_bytes + obj.size > self.disk_capacity:
            raise CapacityExceeded(f"{self.server_id}: backup disk full")
        prev = self._backup.get(obj.key)
        if prev is not None:
            self._backup_bytes -= prev.size
        self._backup[obj.key] = obj
        self._backup_bytes += obj.size
        self.stats.backup_puts += 1

    def backup_get(self, key: str) -> CacheObject:
        self._check_up()
        try:
            return self._backup[key]
        except KeyError:
            raise NoSuchKey(key) from None

    def backup_has(self, key: str) -> bool:
        return self.up and key in self._backup

    def backup_peek(self, key: str) -> Optional[CacheObject]:
        """Control-plane read of a backup copy (None when down/absent)."""
        if not self.up:
            return None
        return self._backup.get(key)

    def backup_delete(self, key: str) -> Optional[CacheObject]:
        self._check_up()
        obj = self._backup.pop(key, None)
        if obj is not None:
            self._backup_bytes -= obj.size
        return obj

    def backup_keys(self):
        return list(self._backup.keys())

    # -- promotion (migration / recovery) --------------------------------------

    def promote(self, key: str) -> CacheObject:
        """Turn this server's backup copy of ``key`` into the master copy."""
        self._check_up()
        obj = self.backup_get(key)
        # Put first: a refused promotion must leave the backup copy.
        self.master_put(obj)
        del self._backup[key]
        self._backup_bytes -= obj.size
        self.stats.promotions += 1
        return obj

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
