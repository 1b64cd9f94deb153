"""The three-map coordinator: the oracle for ``repro.kvcache.coordinator``.

Placement as the coordinator kept it before it held one record per
key: a master map, a backup-set map and a version map, each looked up
on its own, the backup set copied on every read and sorted on every
election.  ``test_coordinator_oracle.py`` drives it and the production
coordinator through the same steps and compares every query.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.kvcache.errors import CacheError, NoSuchKey
from repro.kvcache.server import CacheServer


class ReferenceCoordinator:
    """Placement and membership authority, one map per fact."""

    def __init__(self, replication_factor: int = 2):
        if replication_factor < 0:
            raise CacheError("replication factor must be non-negative")
        self.replication_factor = replication_factor
        self.servers: Dict[str, CacheServer] = {}
        self._master_of: Dict[str, str] = {}
        self._backups_of: Dict[str, Set[str]] = {}
        # Last version recorded for each key.  Survives master loss, so
        # a re-put after a crash can seed its version past the copies
        # that died with the node (crash-consistency fix).
        self._version_of: Dict[str, int] = {}

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
        return self._master_of.get(key)

    def backups_of(self, key: str) -> Set[str]:
        return set(self._backups_of.get(key, set()))

    def holds(self, key: str) -> bool:
        return key in self._master_of

    def keys_mastered_by(self, server_id: str) -> List[str]:
        return [k for k, sid in self._master_of.items() if sid == server_id]

    def version_of(self, key: str) -> int:
        """Last version recorded for ``key`` (0 when unknown)."""
        return self._version_of.get(key, 0)

    def keys_backed_by(self, server_id: str) -> List[str]:
        return [k for k, ids in self._backups_of.items() if server_id in ids]

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
            s for s in self.live_servers() if s.server_id != master_id
        ]
        candidates.sort(key=lambda s: s.disk_used_bytes)
        return [s.server_id for s in candidates[: self.replication_factor]]

    def choose_new_master(
        self, key: str, size: int, target: Optional[str] = None
    ) -> Optional[CacheServer]:
        """Elect the backup that takes over ``key``'s master copy
        (``size`` bytes): the one with the most free bytes among those
        that can promote their copy, restricted to ``target`` if given.
        Ids are scanned sorted, so a tie goes to the lowest id — a set's
        order moves with the interpreter's hash seed."""
        best = None
        best_free = 0
        for backup_id in sorted(self._backups_of.get(key, ())):
            if target is not None and backup_id != target:
                continue
            server = self.servers[backup_id]
            if server.backup_has(key) and server.can_fit(size):
                free = server.free_bytes
                if best is None or free > best_free:
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
        self._master_of[key] = master_id
        self._backups_of[key] = set(backup_ids)
        if version is not None:
            self._version_of[key] = version

    def record_master_change(self, key: str, new_master: str) -> None:
        old_master = self._master_of.get(key)
        if old_master is None:
            raise NoSuchKey(key)
        backups = self._backups_of.setdefault(key, set())
        backups.discard(new_master)
        backups.add(old_master)
        self._master_of[key] = new_master

    def forget(self, key: str) -> None:
        self._master_of.pop(key, None)
        self._backups_of.pop(key, None)
        self._version_of.pop(key, None)
