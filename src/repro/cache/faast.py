"""Faa$T-style per-application auto-scaling cache (arXiv:2104.13869).

Faa$T gives every application its own cache, co-located with the
application's instances, and scales it *horizontally*: shards
("cachelets") are added when the application's working set or access
frequency outgrows the current fleet and removed when demand subsides.
This backend models that architecture over the simulated node pool:

* one :class:`_AppCache` per application (keyed by the object's tenant
  flag), holding 1..max shards pinned round-robin across live nodes;
* objects map to a shard at admission and *stay* there (a stable
  key->shard index, so rescaling never breaks read-your-writes);
* a periodic scaling loop sizes each application's fleet from a
  sliding window of bytes touched and ops issued, with hysteresis via
  idle-period teardown;
* shard memory is provisioned exclusively for caching, so the cost
  meter prices it at the dedicated rate — the axis on which OFC's
  harvested design wins.

Shards are mirrored onto a backup node (``OFCConfig.faast_replication``,
on by default): puts copy to the mirror in parallel, a crash *promotes*
the mirror to primary, and the repair pass re-creates missing mirrors.
The chaos harness found the original unreplicated design unsound under
OFC's write-back data plane: a dirty (write-back pending) object lives
*only* in its shard until the persistor lands it, so a node crash during
an RSDS outage destroyed acked writes.  ``faast_replication=False``
restores the pre-fix backend for regression tests.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Any, Dict, Generator, Iterator, List, Optional, Tuple
from zlib import crc32

from repro.cache.backend import CacheBackend
from repro.core.config import OFCConfig
from repro.kvcache.errors import CapacityExceeded, NoSuchKey, ObjectTooLarge
from repro.kvcache.objects import (
    BACKUP_WRITE,
    CacheObject,
    LOCAL_READ,
    LOCAL_WRITE,
    REMOTE_READ,
    REMOTE_WRITE,
)
from repro.sim.kernel import Kernel
from repro.sim.latency import CACHE_SCALE_EVICT, CACHE_SCALE_PLAIN, MB

#: Application key for objects without a tenant attribution.
SHARED_APP = "_shared"


@dataclass
class FaaSTStats:
    puts: int = 0
    gets_local: int = 0
    gets_remote: int = 0
    misses: int = 0
    deletes: int = 0
    evictions: int = 0
    scale_outs: int = 0
    scale_ins: int = 0
    apps_torn_down: int = 0
    shards_lost: int = 0
    lost_objects: int = 0
    backup_writes: int = 0
    shards_promoted: int = 0
    backups_repaired: int = 0


class _Shard:
    """One cachelet: a fixed-size LRU slab pinned to a node."""

    __slots__ = ("node_id", "backup_node", "capacity", "used_bytes", "objects")

    def __init__(self, node_id: str, capacity: int,
                 backup_node: Optional[str] = None):
        self.node_id = node_id
        #: Mirror host (None = under-replicated until the next repair).
        self.backup_node = backup_node
        self.capacity = capacity
        self.used_bytes = 0
        #: key -> CacheObject, LRU order (oldest first).
        self.objects: "OrderedDict[str, CacheObject]" = OrderedDict()

    def add(self, obj: CacheObject) -> None:
        self.objects[obj.key] = obj
        self.used_bytes += obj.size

    def remove(self, key: str) -> CacheObject:
        obj = self.objects.pop(key)
        self.used_bytes -= obj.size
        return obj

    def touch(self, key: str) -> None:
        self.objects.move_to_end(key)


class _AppCache:
    """Per-application shard fleet plus its demand window."""

    __slots__ = ("app", "shards", "index", "window_ops", "window_bytes",
                 "idle_periods")

    def __init__(self, app: str):
        self.app = app
        self.shards: List[_Shard] = []
        #: Stable key -> shard placement (survives rescaling).
        self.index: Dict[str, _Shard] = {}
        self.window_ops = 0
        self.window_bytes = 0
        self.idle_periods = 0

    def live_bytes(self) -> int:
        return sum(s.used_bytes for s in self.shards)


class FaaSTBackend(CacheBackend):
    """Per-application horizontally auto-scaling cache."""

    name = "faast"

    def __init__(
        self,
        kernel: Kernel,
        node_ids: List[str],
        config: Optional[OFCConfig] = None,
        rng=None,
        max_object_size: Optional[int] = None,
    ):
        super().__init__(
            kernel, node_ids, config=config, rng=rng,
            max_object_size=max_object_size,
        )
        self.shard_bytes = int(self.config.faast_shard_mb * MB)
        self.stats = FaaSTStats()
        self._apps: Dict[str, _AppCache] = {}
        self._down: set = set()
        self._node_rr = 0
        self._started = False
        self._replication = bool(self.config.faast_replication)
        #: Promotions performed by crash() whose fail-over latency and
        #: object count recover() still has to account for.
        self._promotions_pending = 0
        self._promoted_objects = 0

    # -- helpers -------------------------------------------------------------

    def _live_nodes(self) -> List[str]:
        return [n for n in self.node_ids if n not in self._down]

    def _next_node(self) -> Optional[str]:
        """Deterministic round-robin over live nodes."""
        live = self._live_nodes()
        if not live:
            return None
        node = live[self._node_rr % len(live)]
        self._node_rr += 1
        return node

    def _app_of(self, flags: Optional[Dict[str, Any]]) -> str:
        return (flags or {}).get("tenant") or SHARED_APP

    def _app_cache(self, app: str) -> _AppCache:
        cache = self._apps.get(app)
        if cache is None:
            cache = self._apps[app] = _AppCache(app)
        return cache

    def _pick_backup(self, primary: str) -> Optional[str]:
        """Deterministic mirror host: round-robin over live nodes other
        than the primary (None when the primary is the only one up)."""
        live = [n for n in self._live_nodes() if n != primary]
        if not live:
            return None
        node = live[self._node_rr % len(live)]
        self._node_rr += 1
        return node

    def _backup_live(self, shard: _Shard) -> bool:
        return (
            shard.backup_node is not None
            and shard.backup_node not in self._down
        )

    def _add_shard(self, cache: _AppCache) -> Optional[_Shard]:
        node = self._next_node()
        if node is None:
            return None
        backup = self._pick_backup(node) if self._replication else None
        shard = _Shard(node, self.shard_bytes, backup_node=backup)
        cache.shards.append(shard)
        self._sync_cost()
        return shard

    def _sync_cost(self) -> None:
        # Mirrored shards reserve their slab on the backup node too.
        total = self.total_capacity
        if self._replication:
            total += sum(
                s.capacity
                for c in self._apps.values()
                for s in c.shards
                if self._backup_live(s)
            )
        self.cost.set_memory(dedicated_mb=total / MB)

    def _find(self, key: str) -> Optional[Tuple[_AppCache, _Shard]]:
        for cache in self._apps.values():
            shard = cache.index.get(key)
            if shard is not None:
                return cache, shard
        return None

    def _drop_object(self, cache: _AppCache, shard: _Shard, key: str,
                     lost: bool = False) -> CacheObject:
        obj = shard.remove(key)
        del cache.index[key]
        if lost:
            self.stats.lost_objects += 1
        self._removed(obj)
        return obj

    def _make_room(self, cache: _AppCache, shard: _Shard, size: int) -> bool:
        """Evict clean LRU entries from ``shard`` until ``size`` fits.
        Dirty (write-back pending) entries are never evicted — if they
        block admission the put degrades to the store, like OFC."""
        if size > shard.capacity:
            return False
        while shard.used_bytes + size > shard.capacity:
            victim_key = None
            for key, obj in shard.objects.items():
                if not obj.flags.get("dirty", False):
                    victim_key = key
                    break
            if victim_key is None:
                return False
            self._drop_object(cache, shard, victim_key)
            self.stats.evictions += 1
        return True

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.kernel.process(self._scale_loop(), name="faast-scaler")

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
        if size > self.shard_bytes:
            raise ObjectTooLarge(f"{key}: {size} bytes > shard size")
        app = self._app_of(flags)
        cache = self._app_cache(app)
        version = 1
        # Replace any existing copy (possibly under another app if the
        # attribution changed between writes).
        found = self._find(key)
        if found is not None:
            old_cache, old_shard = found
            old = self._drop_object(old_cache, old_shard, key)
            version = old.version + 1
        if not cache.shards and self._add_shard(cache) is None:
            raise CapacityExceeded("no live node can host a shard")
        shard = cache.shards[crc32(key.encode()) % len(cache.shards)]
        if not self._make_room(cache, shard, size):
            # The hashed shard is pinned full; try any sibling with room.
            shard = next(
                (s for s in cache.shards
                 if self._make_room(cache, s, size)),
                None,
            )
            if shard is None:
                raise CapacityExceeded(f"app {app}: no shard fits {size} B")
        obj = CacheObject(
            key=key,
            value=value,
            size=size,
            version=version,
            created_at=self.kernel.now,
            t_access=self.kernel.now,
            flags=dict(flags or {}),
        )
        shard.add(obj)
        cache.index[key] = shard
        self._admitted(obj)
        cache.window_ops += 1
        cache.window_bytes += size
        self.stats.puts += 1
        if shard.node_id == caller:
            primary = self._delay(LOCAL_WRITE, size)
        else:
            primary = self._remote_delay(REMOTE_WRITE, size)
        if self._replication and self._backup_live(shard):
            # Mirror in parallel with the primary write: the put acks
            # once both copies landed.
            self.stats.backup_writes += 1
            self.cost.count("backup_ops")
            yield max(primary, self._remote_delay(BACKUP_WRITE, size))
        else:
            yield primary
        return shard.node_id

    def get(self, key: str, caller: str) -> Generator[Any, Any, CacheObject]:
        found = self._find(key)
        if found is None:
            self.stats.misses += 1
            raise NoSuchKey(key)
        cache, shard = found
        obj = shard.objects[key]
        if shard.node_id == caller:
            yield self._delay(LOCAL_READ, obj.size)
        else:
            yield self._remote_delay(REMOTE_READ, obj.size)
        obj.n_access += 1
        obj.t_access = self.kernel.now
        shard.touch(key)
        cache.window_ops += 1
        cache.window_bytes += obj.size
        if shard.node_id == caller:
            self.stats.gets_local += 1
        else:
            self.stats.gets_remote += 1
        return obj.copy()

    def delete(self, key: str, caller: str) -> Generator[Any, Any, None]:
        found = self._find(key)
        if found is None:
            raise NoSuchKey(key)
        cache, shard = found
        self._drop_object(cache, shard, key)
        self.stats.deletes += 1
        model = LOCAL_WRITE if shard.node_id == caller else REMOTE_WRITE
        yield self._delay(model)

    def peek(self, key: str) -> Optional[CacheObject]:
        found = self._find(key)
        if found is None:
            return None
        _cache, shard = found
        return shard.objects[key]

    def set_flags(self, key: str, **flags: Any) -> None:
        obj = self.peek(key)
        if obj is None:
            raise NoSuchKey(key)
        obj.flags.update(flags)

    def location_of(self, key: str) -> Optional[str]:
        found = self._find(key)
        if found is None:
            return None
        return found[1].node_id

    def objects(self) -> Iterator[Tuple[str, CacheObject]]:
        for app in sorted(self._apps):
            for shard in self._apps[app].shards:
                for obj in list(shard.objects.values()):
                    yield shard.node_id, obj

    # -- capacity ------------------------------------------------------------

    @property
    def total_capacity(self) -> int:
        return sum(
            s.capacity for c in self._apps.values() for s in c.shards
        )

    @property
    def total_used(self) -> int:
        return sum(c.live_bytes() for c in self._apps.values())

    # -- autoscaling ---------------------------------------------------------

    def _scale_loop(self) -> Generator:
        period = self.config.faast_scale_period_s
        while True:
            yield period
            yield from self._rescale_all()

    def _target_shards(self, cache: _AppCache) -> int:
        """Shards the window's demand justifies: working-set bytes with
        headroom, or access frequency, whichever asks for more."""
        ws = max(cache.window_bytes, cache.live_bytes())
        by_ws = -(-int(ws * (1.0 + self.config.faast_ws_headroom))
                  // self.shard_bytes)
        by_freq = -(-cache.window_ops // self.config.faast_ops_per_shard)
        target = max(1, by_ws, by_freq)
        return min(self.config.faast_max_shards_per_app, target)

    def _rescale_all(self) -> Generator:
        for app in sorted(self._apps):
            cache = self._apps[app]
            if cache.window_ops == 0 and cache.live_bytes() == 0:
                cache.idle_periods += 1
                if cache.idle_periods >= self.config.faast_idle_periods:
                    # Tear the application's cache down entirely.
                    for _ in cache.shards:
                        self.stats.scale_ins += 1
                    cache.shards = []
                    cache.index = {}
                    del self._apps[app]
                    self.stats.apps_torn_down += 1
                    self._sync_cost()
                continue
            cache.idle_periods = 0
            target = self._target_shards(cache)
            while len(cache.shards) < target:
                if self._add_shard(cache) is None:
                    break
                self.stats.scale_outs += 1
                yield self._delay(CACHE_SCALE_PLAIN)
            while len(cache.shards) > target:
                if not (yield from self._remove_one_shard(cache)):
                    break
            cache.window_ops = 0
            cache.window_bytes = 0

    def _remove_one_shard(self, cache: _AppCache) -> Generator:
        """Drain the emptiest shard: re-home what fits elsewhere, evict
        clean leftovers, refuse if a dirty entry cannot be re-homed."""
        shard = min(cache.shards, key=lambda s: (s.used_bytes, s.node_id))
        rest = [s for s in cache.shards if s is not shard]
        evicting = False
        for key in list(shard.objects):
            obj = shard.objects[key]
            dest = next(
                (s for s in rest
                 if s.used_bytes + obj.size <= s.capacity),
                None,
            )
            if dest is not None:
                shard.remove(key)
                dest.add(obj)
                cache.index[key] = dest
                continue
            if obj.flags.get("dirty", False):
                return False  # never drop unpersisted data for a scale-in
            self._drop_object(cache, shard, key)
            self.stats.evictions += 1
            evicting = True
        cache.shards.remove(shard)
        self.stats.scale_ins += 1
        self._sync_cost()
        yield self._delay(CACHE_SCALE_EVICT if evicting else CACHE_SCALE_PLAIN)
        return True

    # -- faults --------------------------------------------------------------

    def crash(self, node_id: str) -> None:
        """Fail-stop a node.  With replication, shards it hosted fail
        over to their mirror (promotion is a metadata flip here; the
        latency lands in :meth:`recover`); without one — or when the
        mirror is also down — a shard is lost with its contents."""
        self._down.add(node_id)
        for cache in self._apps.values():
            for shard in list(cache.shards):
                if shard.node_id == node_id:
                    if self._replication and self._backup_live(shard):
                        shard.node_id = shard.backup_node
                        shard.backup_node = None
                        self.stats.shards_promoted += 1
                        self._promotions_pending += 1
                        self._promoted_objects += len(shard.objects)
                    else:
                        for key in list(shard.objects):
                            self._drop_object(cache, shard, key, lost=True)
                        cache.shards.remove(shard)
                        self.stats.shards_lost += 1
                elif shard.backup_node == node_id:
                    # The mirror died: primary survives, under-replicated
                    # until the next repair pass.
                    shard.backup_node = None
        self._sync_cost()

    def restart(self, node_id: str) -> int:
        self._down.discard(node_id)
        return 0

    def recover(self, node_id: str) -> Generator[Any, Any, int]:
        """Fail-over latency for shards crash() promoted, then a minimum
        fleet for apps the crash left bare (their contents are gone —
        subsequent misses refill from the store)."""
        recovered = 0
        while self._promotions_pending > 0:
            self._promotions_pending -= 1
            yield self._delay(CACHE_SCALE_PLAIN)
        recovered += self._promoted_objects
        self._promoted_objects = 0
        for app in sorted(self._apps):
            cache = self._apps[app]
            if not cache.shards and self._add_shard(cache) is not None:
                yield self._delay(CACHE_SCALE_PLAIN)
        return recovered

    def repair(self) -> Generator[Any, Any, int]:
        """Re-create missing mirrors (promotion consumed one, or the
        backup's node died): copy the shard's contents to a new backup
        host.  No-op without replication."""
        repaired = 0
        if self._replication:
            for app in sorted(self._apps):
                for shard in self._apps[app].shards:
                    if self._backup_live(shard):
                        continue
                    backup = self._pick_backup(shard.node_id)
                    if backup is None:
                        continue
                    shard.backup_node = backup
                    self.stats.backups_repaired += 1
                    self.cost.count("backup_ops")
                    yield self._remote_delay(BACKUP_WRITE, shard.used_bytes)
                    repaired += len(shard.objects)
            self._sync_cost()
        return repaired

    # -- observability -------------------------------------------------------

    def stats_snapshot(self) -> Dict[str, Any]:
        snap = asdict(self.stats)
        snap["apps"] = len(self._apps)
        snap["shards"] = sum(len(c.shards) for c in self._apps.values())
        snap["live_servers"] = len(self._live_nodes())
        snap["under_replicated"] = (
            sum(
                1
                for c in self._apps.values()
                for s in c.shards
                if not self._backup_live(s)
            )
            if self._replication
            else 0
        )
        return snap
