"""Cluster coordinator: membership and object placement.

The coordinator tracks which server masters each key and where its
backup copies live.  OFC's modified load balancer queries it to route
invocations to the node holding the master copy of their input (§6.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Set, Tuple

from repro import slotted
from repro.kvcache.errors import CacheError, NoSuchKey
from repro.kvcache.server import CacheServer

_by_backup_bytes = attrgetter("_backup_bytes")


@slotted
@dataclass
class Placement:
    """Where one key lives: its master's id, its backups' ids (sorted:
    every walk is the same for any hash seed) and its last version,
    which survives master loss so a re-put after a crash can seed its
    version past the copies that died with the node."""

    master: str
    backups: Tuple[str, ...]
    version: int


class Coordinator:
    """Placement and membership authority for the cache cluster."""

    def __init__(self, replication_factor: int = 2):
        if replication_factor < 0:
            raise CacheError("replication factor must be non-negative")
        self.replication_factor = replication_factor
        self.servers: Dict[str, CacheServer] = {}
        #: One record per placed key.  The cluster's data path reads it
        #: directly (one lookup per operation); only the coordinator's
        #: bookkeeping methods write it.
        self.placements: Dict[str, Placement] = {}

    # -- membership -----------------------------------------------------------

    def register(self, server: CacheServer) -> None:
        if server.server_id in self.servers:
            raise CacheError(f"duplicate server id: {server.server_id}")
        self.servers[server.server_id] = server

    def server(self, server_id: str) -> CacheServer:
        try:
            return self.servers[server_id]
        except KeyError:
            raise CacheError(f"unknown server: {server_id}") from None

    def live_servers(self) -> List[CacheServer]:
        return [s for s in self.servers.values() if s.up]

    # -- placement queries -------------------------------------------------------

    def master_of(self, key: str) -> Optional[str]:
        record = self.placements.get(key)
        return None if record is None else record.master

    def backups_of(self, key: str) -> Set[str]:
        record = self.placements.get(key)
        return set() if record is None else set(record.backups)

    def holds(self, key: str) -> bool:
        return key in self.placements

    def keys_mastered_by(self, server_id: str) -> List[str]:
        return [k for k, r in self.placements.items() if r.master == server_id]

    def version_of(self, key: str) -> int:
        """Last version recorded for ``key`` (0 when unknown)."""
        record = self.placements.get(key)
        return 0 if record is None else record.version

    def keys_backed_by(self, server_id: str) -> List[str]:
        return [k for k, r in self.placements.items() if server_id in r.backups]

    # -- placement decisions -------------------------------------------------------

    def choose_master(
        self, size: int, preferred: Optional[str] = None
    ) -> Optional[str]:
        """Pick a live server with room, preferring ``preferred``."""
        if preferred is not None:
            server = self.servers.get(preferred)
            if server is not None and server.up and server.can_fit(size):
                return preferred
        candidates = [s for s in self.live_servers() if s.can_fit(size)]
        if not candidates:
            return None
        return max(candidates, key=lambda s: s.free_bytes).server_id

    def choose_backups(self, key: str, master_id: str) -> List[str]:
        """Pick up to ``replication_factor`` live servers, excluding the
        master, spreading by current disk usage."""
        candidates = [
            s for s in self.servers.values() if s.up and s.server_id != master_id
        ]
        candidates.sort(key=_by_backup_bytes)
        return [s.server_id for s in candidates[: self.replication_factor]]

    def choose_new_master(
        self, key: str, size: int, target: Optional[str] = None
    ) -> Optional[CacheServer]:
        """Elect the backup that takes over ``key``'s master copy
        (``size`` bytes): the one with the most free bytes among those
        that can promote their copy, restricted to ``target`` if given.
        Backups are kept sorted, so a tie goes to the lowest id — a
        set's order moves with the interpreter's hash seed."""
        record = self.placements.get(key)
        if record is None:
            return None
        best = None
        best_free = 0
        for backup_id in record.backups:
            if target is not None and backup_id != target:
                continue
            server = self.servers[backup_id]
            free = server.promotion_room(key, size)
            if free is not None and (best is None or free > best_free):
                best, best_free = server, free
        return best

    # -- placement bookkeeping ------------------------------------------------------

    def record_placement(
        self,
        key: str,
        master_id: str,
        backup_ids: List[str],
        version: Optional[int] = None,
    ) -> None:
        old = self.placements.get(key)
        if version is None:
            version = 0 if old is None else old.version
        backups = tuple(sorted(set(backup_ids)))
        self.placements[key] = Placement(master_id, backups, version)

    def record_master_change(self, key: str, new_master: str) -> None:
        record = self.placements.get(key)
        if record is None:
            raise NoSuchKey(key)
        # The old master joins the backups, the new one leaves them: a
        # plain loop, as sets cost more than the sort of two or three ids.
        old_master = record.master
        backups = [old_master]
        for backup_id in record.backups:
            if backup_id != new_master and backup_id != old_master:
                backups.append(backup_id)
        backups.sort()
        record.backups = tuple(backups)
        record.master = new_master

    def forget(self, key: str) -> None:
        self.placements.pop(key, None)
