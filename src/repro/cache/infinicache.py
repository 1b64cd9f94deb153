"""InfiniCache-style ephemeral-function cache (arXiv:2001.10483).

InfiniCache stores objects as erasure-coded chunks (k data + r parity)
spread across short-lived serverless sandboxes ("lambdas"), tolerates
provider-side reclamation through the coding redundancy plus periodic
backups to the object store, and *warms up* replacement sandboxes when
a reclaimed one takes chunks with it.  This backend models that
architecture over the simulated node pool:

* a fixed pool of sandboxes per node, each with a small dedicated
  memory slab and a finite lifetime (staggered so reclamations do not
  synchronize);
* ``put`` spreads k+r chunks over distinct live sandboxes (an object
  is readable while >= k chunks survive); ``get`` gathers k chunks in
  parallel, so latency is the slowest chunk fetch;
* a reclamation loop replaces expired sandboxes and re-establishes
  redundancy — re-encoding from surviving chunks when >= k remain,
  else restoring the whole object from the latest backup (a dirty one
  evicting clean objects for the room, as a put does);
* a backup loop periodically copies (object, flags, version) to an
  internal object-store area; ``set_flags`` also lands on the backup
  copy so a restore never resurrects stale ``dirty`` state;
* sandbox memory and per-op lambda/backup charges feed the cost
  meter at the dedicated serverless rate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Generator, Iterator, List, Optional, Set, Tuple

from repro.core.config import OFCConfig
from repro.kvcache.backend import CacheBackend
from repro.kvcache.errors import CapacityExceeded, NoSuchKey, ObjectTooLarge
from repro.kvcache.objects import CacheObject
from repro.sim.kernel import Kernel
from repro.sim.latency import BACKUP_WRITE, MB, REMOTE_READ, REMOTE_WRITE


@dataclass
class InfiniCacheStats:
    puts: int = 0
    gets_local: int = 0
    gets_remote: int = 0
    misses: int = 0
    deletes: int = 0
    evictions: int = 0
    reclamations: int = 0
    warmups: int = 0
    reencodes: int = 0
    backups: int = 0
    restores: int = 0
    lost_objects: int = 0
    #: Dirty (write-back pending) entries kept through a failed warm-up
    #: instead of being dropped (chaos-harness fix: the old path lost
    #: acked writes that existed only in the cache).
    dirty_retained: int = 0


class _Sandbox:
    """One ephemeral cache lambda pinned to a node."""

    __slots__ = ("sandbox_id", "node_id", "capacity", "used_bytes",
                 "born_at", "lifetime_s", "up", "chunks")

    def __init__(self, sandbox_id: str, node_id: str, capacity: int,
                 born_at: float, lifetime_s: float):
        self.sandbox_id = sandbox_id
        self.node_id = node_id
        self.capacity = capacity
        self.used_bytes = 0
        self.born_at = born_at
        self.lifetime_s = lifetime_s
        self.up = True
        #: key -> chunk bytes held for that object (one chunk each).
        self.chunks: Dict[str, int] = {}

    def free_bytes(self) -> int:
        return self.capacity - self.used_bytes

    def add_chunk(self, key: str, nbytes: int) -> None:
        self.chunks[key] = nbytes
        self.used_bytes += nbytes

    def drop_chunk(self, key: str) -> None:
        nbytes = self.chunks.pop(key, 0)
        self.used_bytes -= nbytes


class InfiniCacheBackend(CacheBackend):
    """Erasure-coded cache over short-lived sandboxes."""

    name = "infinicache"

    def __init__(
        self,
        kernel: Kernel,
        node_ids: List[str],
        config: OFCConfig,
        max_object_size: int,
        rng=None,
    ):
        super().__init__(kernel, node_ids, rng=rng, max_object_size=max_object_size)
        self.config = config
        cfg = self.config
        self.k = max(1, cfg.infinicache_data_chunks)
        self.r = max(0, cfg.infinicache_parity_chunks)
        self.lambda_bytes = int(cfg.infinicache_lambda_mb * MB)
        self.stats = InfiniCacheStats()
        #: key -> logical object (value + flags + version).
        self._entries: Dict[str, CacheObject] = {}
        #: key -> sandboxes holding one chunk each.
        self._placement: Dict[str, List[_Sandbox]] = {}
        #: Latest object-store backup copies (survive any sandbox loss).
        self._backup: Dict[str, CacheObject] = {}
        self._sandboxes: List[_Sandbox] = []
        self._down_nodes: Set[str] = set()
        #: Keys degraded below k live chunks by a crash, pending recover().
        self._degraded: Set[str] = set()
        self._next_id = 0
        self._started = False

    # -- sandbox pool --------------------------------------------------------

    def _spawn(self, node_id: str, stagger_idx: int = 0) -> _Sandbox:
        """Provision one sandbox (a lambda invocation).  ``stagger_idx``
        skews the first generation's lifetimes so the provider does not
        reclaim the whole pool at once."""
        per_node = max(1, self.config.infinicache_lambdas_per_node)
        lifetime = self.config.infinicache_lifetime_s
        lifetime *= 0.75 + 0.5 * ((stagger_idx % per_node) / per_node)
        sandbox = _Sandbox(
            f"ic-{self._next_id}", node_id, self.lambda_bytes,
            self.kernel.now, lifetime,
        )
        self._next_id += 1
        self._sandboxes.append(sandbox)
        self.cost.count("lambda_invocations")
        self._sync_cost()
        return sandbox

    def _kill(self, sandbox: _Sandbox) -> Set[str]:
        """Tear a sandbox down; returns the keys that lost a chunk."""
        sandbox.up = False
        affected = set(sandbox.chunks)
        sandbox.chunks = {}
        sandbox.used_bytes = 0
        self._sandboxes.remove(sandbox)
        self._sync_cost()
        for key in affected:
            placement = self._placement.get(key)
            if placement and sandbox in placement:
                placement.remove(sandbox)
        return affected

    def _sync_cost(self) -> None:
        self.cost.set_memory(dedicated_mb=self.total_capacity / MB)

    def _live_chunks(self, key: str) -> int:
        return len(self._placement.get(key, ()))

    def _chunk_bytes(self, size: int) -> int:
        return -(-size // self.k)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        per_node = max(1, self.config.infinicache_lambdas_per_node)
        for node_id in self.node_ids:
            for i in range(per_node):
                self._spawn(node_id, stagger_idx=i)
        self.kernel.process(self._reclaim_loop(), name="infinicache-reclaim")
        self.kernel.process(self._backup_loop(), name="infinicache-backup")

    # -- placement -----------------------------------------------------------

    def _choose_sandboxes(self, key: str, chunk: int) -> List[_Sandbox]:
        """k+r distinct sandboxes with room, spread over distinct nodes
        first (deterministic: sorted by free space, then id)."""
        need = self.k + self.r
        candidates = sorted(
            (s for s in self._sandboxes if s.free_bytes() >= chunk),
            key=lambda s: (-s.free_bytes(), s.sandbox_id),
        )
        chosen: List[_Sandbox] = []
        used_nodes: Set[str] = set()
        for sandbox in candidates:
            if len(chosen) == need:
                break
            if sandbox.node_id in used_nodes:
                continue
            chosen.append(sandbox)
            used_nodes.add(sandbox.node_id)
        for sandbox in candidates:
            if len(chosen) == need:
                break
            if sandbox not in chosen:
                chosen.append(sandbox)
        return chosen if len(chosen) == need else []

    def _evict_for_space(self, chunk: int) -> bool:
        """Drop the least-recently-used *clean* object to free room."""
        victims = sorted(
            (
                e for e in self._entries.values()
                if not e.flags.get("dirty", False)
            ),
            key=lambda e: (e.t_access, e.key),
        )
        if not victims:
            return False
        self._forget(victims[0].key)
        self.stats.evictions += 1
        return True

    def _forget(self, key: str, lost: bool = False) -> None:
        """Drop an object's chunks, entry and backup copy."""
        for sandbox in self._placement.pop(key, []):
            sandbox.drop_chunk(key)
        entry = self._entries.pop(key, None)
        self._backup.pop(key, None)
        self._degraded.discard(key)
        if entry is not None:
            if lost:
                self.stats.lost_objects += 1
            self._removed(entry)

    # -- data plane ----------------------------------------------------------

    def put(
        self,
        key: str,
        value: Any,
        size: int,
        caller: str,
        flags: Optional[Dict[str, Any]] = None,
    ) -> Generator[Any, Any, str]:
        if size > self.max_object_size:
            raise ObjectTooLarge(f"{key}: {size} bytes")
        chunk = self._chunk_bytes(size)
        if chunk > self.lambda_bytes:
            raise ObjectTooLarge(f"{key}: {chunk} B chunks > lambda slab")
        version = 1
        old = self._entries.get(key)
        if old is None:
            backed = self._backup.get(key)
            if backed is not None:
                version = backed.version + 1
        else:
            version = old.version + 1
        if old is not None or key in self._backup:
            self._forget(key)
        placement = self._choose_sandboxes(key, chunk)
        while not placement:
            if not self._evict_for_space(chunk):
                raise CapacityExceeded(f"no k+r sandboxes fit {chunk} B chunks")
            placement = self._choose_sandboxes(key, chunk)
        obj = CacheObject(
            key=key,
            value=value,
            size=size,
            version=version,
            created_at=self.kernel.now,
            t_access=self.kernel.now,
            flags=dict(flags or {}),
        )
        self._entries[key] = obj
        self._placement[key] = placement
        for sandbox in placement:
            sandbox.add_chunk(key, chunk)
        self._admitted(obj)
        self.stats.puts += 1
        self.cost.count("lambda_invocations", len(placement))
        # Chunks are uploaded in parallel; the slowest bounds latency.
        longest = 0.0
        for _ in placement:
            longest = max(longest, self._remote_delay(REMOTE_WRITE, chunk))
        if obj.flags.get("dirty", False):
            # Write-back data exists nowhere but this cache until the
            # persistor lands it: back it up promptly (in parallel with
            # the chunk spread) instead of waiting for the periodic
            # loop, so losing chunks below k cannot lose an acked write.
            self._backup[key] = obj.replica(dict(obj.flags))
            self.stats.backups += 1
            self.cost.count("backup_ops")
            longest = max(longest, self._remote_delay(BACKUP_WRITE, size))
        home = placement[0].node_id  # a reclamation may empty the list
        yield longest
        return home

    def get(self, key: str, caller: str) -> Generator[Any, Any, CacheObject]:
        obj = self._entries.get(key)
        if obj is None or self._live_chunks(key) < self.k:
            self.stats.misses += 1
            raise NoSuchKey(key)
        placement = self._placement[key]
        chunk = self._chunk_bytes(obj.size)
        # Fetch k chunks in parallel from the first k sandboxes.
        longest = 0.0
        for _sandbox in placement[: self.k]:
            longest = max(longest, self._remote_delay(REMOTE_READ, chunk))
        self.cost.count("lambda_invocations", self.k)
        yield longest
        obj.n_access += 1
        obj.t_access = self.kernel.now
        if any(s.node_id == caller for s in placement[: self.k]):
            self.stats.gets_local += 1
        else:
            self.stats.gets_remote += 1
        return obj

    def delete(self, key: str, caller: str) -> Generator[Any, Any, None]:
        if key not in self._entries:
            raise NoSuchKey(key)
        self._forget(key)
        self.stats.deletes += 1
        yield self._remote_delay(REMOTE_WRITE)

    def peek(self, key: str) -> Optional[CacheObject]:
        obj = self._entries.get(key)
        if obj is None or self._live_chunks(key) < self.k:
            return None
        return obj

    def set_flags(self, key: str, **flags: Any) -> None:
        obj = self._entries.get(key)
        backed = self._backup.get(key)
        if obj is None and backed is None:
            raise NoSuchKey(key)
        if obj is not None:
            obj.flags.update(flags)
            # Mirror onto the same-version backup so a later restore
            # cannot resurrect stale flags (e.g. a cleared ``dirty``).
            if backed is not None and backed.version == obj.version:
                backed.flags.update(flags)
        elif backed is not None:
            backed.flags.update(flags)

    def location_of(self, key: str) -> Optional[str]:
        if self._entries.get(key) is None or self._live_chunks(key) < self.k:
            return None
        return self._placement[key][0].node_id

    def objects(self) -> Iterator[Tuple[str, CacheObject]]:
        for key in sorted(self._entries):
            placement = self._placement.get(key)
            node = placement[0].node_id if placement else "external"
            yield node, self._entries[key]

    # -- capacity ------------------------------------------------------------

    @property
    def total_capacity(self) -> int:
        return sum(s.capacity for s in self._sandboxes)

    @property
    def total_used(self) -> int:
        return sum(s.used_bytes for s in self._sandboxes)

    # -- periodic loops ------------------------------------------------------

    def _backup_loop(self) -> Generator:
        period = self.config.infinicache_backup_period_s
        while True:
            yield period
            for key in sorted(self._entries):
                entry = self._entries.get(key)
                if entry is None:
                    continue  # deleted while the loop slept
                backed = self._backup.get(key)
                if backed is not None and backed.version == entry.version:
                    # Keep the copy's flags current even without re-upload.
                    backed.flags = dict(entry.flags)
                    continue
                self._backup[key] = entry.replica(dict(entry.flags))
                self.stats.backups += 1
                self.cost.count("backup_ops")
                yield self._remote_delay(BACKUP_WRITE, entry.size)

    def _reclaim_loop(self) -> Generator:
        period = self.config.infinicache_reclaim_period_s
        while True:
            yield period
            now = self.kernel.now
            expired = [
                s for s in list(self._sandboxes)
                if now - s.born_at >= s.lifetime_s
            ]
            affected: Set[str] = set()
            for sandbox in expired:
                node = sandbox.node_id
                affected |= self._kill(sandbox)
                self.stats.reclamations += 1
                if node not in self._down_nodes:
                    self._spawn(node)
            # Pending warm-ups are degraded keys: a recovery running
            # meanwhile restores them too.
            self._degraded |= affected & self._entries.keys()
            for key in sorted(affected):
                yield from self._restore_or_drop(key)
            # Retry survivors of earlier failed warm-ups (dirty entries
            # retained while no sandbox had room) now that the pool has
            # been replenished.
            for key in sorted(self._degraded - affected):
                yield from self._restore_or_drop(key)

    def _restore_or_drop(self, key: str) -> Generator:
        """Warm-up after chunk loss: re-encode from surviving chunks
        when >= k remain, else restore from the backup copy, else the
        object is lost from the cache (it survives in the RSDS)."""
        entry = self._entries.get(key)
        if entry is None:
            return
        live = self._live_chunks(key)
        if live >= self.k + self.r:
            self._degraded.discard(key)
            return
        chunk = self._chunk_bytes(entry.size)
        if live >= self.k:
            # Re-encode the missing chunks onto fresh sandboxes.
            placed = yield from self._place_missing(key, chunk)
            if placed:
                self.stats.reencodes += 1
            self._degraded.discard(key)
            return
        backed = self._backup.get(key)
        if backed is None or backed.version != entry.version:
            if entry.flags.get("dirty", False):
                # Never drop write-back data the store has not seen:
                # keep the entry (unreadable but tracked) and let
                # recover/repair and the next reclaim tick retry once
                # sandboxes free up; the persistor still holds the
                # payload for write-back.
                self.stats.dirty_retained += 1
                self._degraded.add(key)
                return
            self._forget(key, lost=True)
            return
        # Full warm-up from the object store: fetch, re-chunk, spread.
        yield self._remote_delay(REMOTE_READ, entry.size)
        if self._entries.get(key) is not entry:
            return  # deleted or rewritten during the fetch
        self.stats.restores += 1
        self.cost.count("backup_ops")
        restored = backed.replica(dict(backed.flags))
        restored.n_access = entry.n_access
        restored.t_access = entry.t_access
        for sandbox in self._placement.pop(key, []):
            sandbox.drop_chunk(key)
        self._placement[key] = []
        self._entries[key] = restored
        if restored.flags.get("dirty", False):
            # Write-back data must become readable again: room comes
            # out of clean entries, as it does for a put.
            while sum(
                s.free_bytes() >= chunk for s in self._sandboxes
            ) < self.k and self._evict_for_space(chunk):
                pass
        placed = yield from self._place_missing(key, chunk)
        if self._entries.get(key) is not restored:
            return  # deleted or rewritten during the uploads
        if placed:
            self.stats.warmups += 1
            self._degraded.discard(key)
        elif restored.flags.get("dirty", False):
            self.stats.dirty_retained += 1
            self._degraded.add(key)
        else:
            self._forget(key, lost=True)

    def _place_missing(self, key: str, chunk: int) -> Generator:
        """Top the object's placement back up to k+r distinct sandboxes.
        Returns True when at least k chunks are live afterwards.

        The chunks are placed before the uploads' latency is paid (as
        :meth:`put` does), so no sandbox chosen here can die, and no
        delete can land, between the choice and the placement."""
        placement = self._placement.setdefault(key, [])
        need = self.k + self.r - len(placement)
        if need <= 0:
            return True
        holders = set(placement)
        chosen = sorted(
            (
                s for s in self._sandboxes
                if s not in holders and s.free_bytes() >= chunk
            ),
            key=lambda s: (-s.free_bytes(), s.sandbox_id),
        )[:need]
        for sandbox in chosen:
            sandbox.add_chunk(key, chunk)
            placement.append(sandbox)
        placed = len(placement) >= self.k
        for _sandbox in chosen:
            self.cost.count("lambda_invocations")
            yield self._remote_delay(REMOTE_WRITE, chunk)
        return placed

    # -- faults --------------------------------------------------------------

    def crash(self, node_id: str) -> None:
        """Fail-stop a node: its sandboxes die with their chunks."""
        self._down_nodes.add(node_id)
        doomed = [s for s in self._sandboxes if s.node_id == node_id]
        affected: Set[str] = set()
        for sandbox in doomed:
            affected |= self._kill(sandbox)
        for key in affected:
            if key in self._entries:
                self._degraded.add(key)

    def restart(self, node_id: str) -> int:
        """Bring a node back and refill its share of the sandbox pool."""
        self._down_nodes.discard(node_id)
        per_node = max(1, self.config.infinicache_lambdas_per_node)
        have = sum(1 for s in self._sandboxes if s.node_id == node_id)
        for i in range(per_node - have):
            self._spawn(node_id, stagger_idx=i)
        return 0

    def recover(self, node_id: str) -> Generator[Any, Any, int]:
        """Restore every key the crash degraded (re-encode or warm up
        from backup); returns the number made readable again."""
        recovered = 0
        for key in sorted(self._degraded):
            yield from self._restore_or_drop(key)
            if self._live_chunks(key) >= self.k:
                recovered += 1
        return recovered

    def repair(self) -> Generator[Any, Any, int]:
        """Top every under-redundant placement back up to k+r."""
        repaired = 0
        for key in sorted(self._entries):
            if key not in self._entries:
                continue
            placement = self._placement.get(key, [])
            if len(placement) >= self.k + self.r:
                continue
            chunk = self._chunk_bytes(self._entries[key].size)
            if (yield from self._place_missing(key, chunk)):
                repaired += 1
        return repaired

    # -- observability -------------------------------------------------------

    def stats_snapshot(self) -> Dict[str, Any]:
        snap = asdict(self.stats)
        snap["sandboxes"] = len(self._sandboxes)
        snap["entries"] = len(self._entries)
        snap["backed_up"] = len(self._backup)
        snap["degraded"] = len(self._degraded)
        snap["live_servers"] = len(
            {s.node_id for s in self._sandboxes}
        )
        snap["under_replicated"] = sum(
            1 for key in self._entries
            if self._live_chunks(key) < self.k + self.r
        )
        return snap
