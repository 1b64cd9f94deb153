"""Log-structured memory for master copies.

RAMCloud stores master data in an append-only log divided into
segments; deletions leave dead bytes that a cleaner later reclaims by
relocating live entries and freeing the segment.  This module models
that structure faithfully enough to expose its externally visible
behaviour: memory *footprint* (allocated segments) can exceed *live*
bytes until the cleaner runs, and the cleaner's work is proportional to
the live bytes it relocates.

The footprint is read on the critical path of every cold start (§6.4:
the cache is shrunk before a sandbox gets its memory), so nothing here
is recomputed on read: byte figures are integer counters kept by
append/delete/drop, and the cleaner's victims are a work-list kept at
the same three points.  ``tests/kvcache/reference_log.py`` is the
recompute-everything oracle; :meth:`ObjectLog.audit` checks the
counters against the same recomputation on a live log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Set, Tuple

from repro.kvcache.errors import CacheError
from repro.sim.latency import MB

SEGMENT_SIZE = 8 * MB

#: The cleaner relocates closed segments whose live share is below this.
CLEAN_UTILIZATION = 0.75


@dataclass(eq=False)
class Segment:
    """One log segment: capacity plus live/dead byte accounting.

    Compared and hashed by identity: two fully dead segments with equal
    byte counts are still two segments.
    """

    capacity: int = SEGMENT_SIZE
    live: Dict[str, int] = field(default_factory=dict)
    dead_bytes: int = 0
    #: Running sum of ``live.values()``, maintained by the owning log's
    #: append/delete (integer arithmetic, so it is exactly the sum).
    live_total: int = 0
    #: Creation rank in the owning log; the cleaner works oldest first.
    rank: int = 0


_by_rank = attrgetter("rank")


@dataclass
class LogStats:
    appends: int = 0
    deletes: int = 0
    cleanings: int = 0
    segments_freed: int = 0
    relocated_bytes: int = 0


class ObjectLog:
    """Append-only segmented log with a utilization-driven cleaner."""

    def __init__(self, segment_size: int = SEGMENT_SIZE):
        if segment_size <= 0:
            raise CacheError("segment size must be positive")
        self.segment_size = segment_size
        #: Allocated segments in creation order (a dict for its O(1)
        #: identity-keyed removal; the values are unused).
        self._segments: Dict[Segment, None] = {}
        #: Closed segments under ``CLEAN_UTILIZATION``: the cleaner's
        #: work-list.  A closed segment only ever loses live bytes, so
        #: once in, a segment stays until it is dropped.
        self._cleanable: Set[Segment] = set()
        self._created = 0
        self._head: Segment = self._new_segment()
        self._locations: Dict[str, Segment] = {}
        self.stats = LogStats()
        #: Live bytes across all segments.
        self.live_bytes = 0
        #: Bytes of allocated segments (what the memory pool must hold).
        #: A never-written segment is only a reservation and is not
        #: charged, so an empty log has footprint 0: a segment's
        #: capacity is added when its first byte lands and subtracted
        #: when the segment is dropped.
        self.footprint_bytes = 0

    def _new_segment(self, capacity: int = 0) -> Segment:
        segment = Segment(
            capacity=capacity or self.segment_size, rank=self._created
        )
        self._created += 1
        self._segments[segment] = None
        return segment

    def _drop(self, segment: Segment) -> None:
        del self._segments[segment]
        self._cleanable.discard(segment)
        if segment.live_total + segment.dead_bytes:
            self.footprint_bytes -= segment.capacity
        self.stats.segments_freed += 1

    # -- accounting ---------------------------------------------------------

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    def __contains__(self, key: str) -> bool:
        return key in self._locations

    def __len__(self) -> int:
        return len(self._locations)

    def keys(self):
        return self._locations.keys()

    def audit(self) -> None:
        """Recompute every running figure from the segments themselves
        and raise :class:`CacheError` naming the ones that drifted."""
        head = self._head
        live = {seg: sum(seg.live.values()) for seg in self._segments}
        recomputed = {
            "live_bytes": sum(live.values()),
            "footprint_bytes": sum(
                seg.capacity for seg, n in live.items() if n + seg.dead_bytes
            ),
            "_cleanable": {
                seg
                for seg, n in live.items()
                if seg is not head and n / seg.capacity < CLEAN_UTILIZATION
            },
            "_locations": {key: seg for seg in live for key in seg.live},
        }
        drift = [
            f"{name}: {getattr(self, name)!r}, recomputed {want!r}"
            for name, want in recomputed.items()
            if getattr(self, name) != want
        ]
        drift += [
            f"segment {seg.rank}: live_total {seg.live_total}, recomputed {n}"
            for seg, n in live.items()
            if seg.live_total != n
        ]
        if head not in live:
            drift.append("the head segment is not allocated")
        if drift:
            raise CacheError("log accounting drifted: " + "; ".join(drift))

    # -- mutation -----------------------------------------------------------

    def append(self, key: str, size: int) -> None:
        """Append an entry; an existing entry for ``key`` becomes dead."""
        if size < 0:
            raise CacheError("entry size must be non-negative")
        if key in self._locations:
            self.delete(key)
        segment = self._head
        if size > self.segment_size:
            # Jumbo entry: dedicated segment of exact size.
            segment = self._new_segment(capacity=size)
        elif size > segment.capacity - segment.live_total - segment.dead_bytes:
            closed = segment
            segment = self._head = self._new_segment()
            if closed.live_total / closed.capacity < CLEAN_UTILIZATION:
                self._cleanable.add(closed)
        if size and not segment.live_total + segment.dead_bytes:
            self.footprint_bytes += segment.capacity
        segment.live[key] = size
        segment.live_total += size
        self.live_bytes += size
        self._locations[key] = segment
        self.stats.appends += 1

    def delete(self, key: str) -> int:
        """Mark the entry dead; returns its size."""
        segment = self._locations.pop(key, None)
        if segment is None:
            raise CacheError(f"key not in log: {key}")
        size = segment.live.pop(key)
        segment.live_total -= size
        segment.dead_bytes += size
        self.live_bytes -= size
        self.stats.deletes += 1
        if segment is not self._head:
            if not segment.live:
                # A fully dead closed segment is reclaimed immediately.
                self._drop(segment)
            elif segment.live_total / segment.capacity < CLEAN_UTILIZATION:
                self._cleanable.add(segment)
        return size

    def clean(self) -> Tuple[int, int]:
        """Relocate live entries out of under-utilized closed segments.

        Returns (segments freed, live bytes relocated).  Relocation uses
        the normal append path, so the cleaner itself can open new head
        segments — exactly like RAMCloud's cleaner.  A head closed that
        way waits for the next pass.
        """
        self.stats.cleanings += 1
        if not self._cleanable:
            return 0, 0
        relocated = 0
        victims = sorted(self._cleanable, key=_by_rank)
        for segment in victims:
            for key, size in list(segment.live.items()):
                self.delete(key)  # drops the segment with its last entry
                self.append(key, size)
                relocated += size
            if segment in self._segments:
                self._drop(segment)  # had no live entry to trigger it
        self.stats.relocated_bytes += relocated
        return len(victims), relocated
