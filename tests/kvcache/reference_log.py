"""Reference oracle for :class:`repro.kvcache.log.ObjectLog`.

This is the recompute-on-read log that ``src/repro/kvcache/log.py``
carried before its accounting became running counters: every byte
figure is re-summed from the segments when it is read, segments live in
a plain list, and ``clean()`` scans all of them for victims.  It is
slow and obviously right, which is the point — the tests drive it next
to the production log and require every externally visible number to
agree (``test_log_oracle.py``).

It differs from the implementation it was moved from only towards
"trivially correct": the memoised footprint and the running live-byte
counters are gone (plain sums), and segments compare by identity —
value equality made ``list.remove`` drop the first *equal* segment
rather than the one meant, a bug, not behaviour to preserve.  Like the
production log, ``clean()`` has the one threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.kvcache.errors import CacheError
from repro.kvcache.log import CLEAN_UTILIZATION, LogStats, SEGMENT_SIZE


@dataclass(eq=False)
class ReferenceSegment:
    """One log segment: capacity plus live/dead byte accounting."""

    capacity: int = SEGMENT_SIZE
    live: Dict[str, int] = field(default_factory=dict)
    dead_bytes: int = 0

    @property
    def live_bytes(self) -> int:
        return sum(self.live.values())

    @property
    def used_bytes(self) -> int:
        return self.live_bytes + self.dead_bytes

    @property
    def free_bytes(self) -> int:
        return self.capacity - self.used_bytes

    @property
    def utilization(self) -> float:
        """Fraction of capacity occupied by live entries."""
        if self.capacity == 0:
            return 0.0
        return self.live_bytes / self.capacity


class ReferenceObjectLog:
    """Append-only segmented log with a utilization-driven cleaner."""

    def __init__(self, segment_size: int = SEGMENT_SIZE):
        if segment_size <= 0:
            raise CacheError("segment size must be positive")
        self.segment_size = segment_size
        self._segments: List[ReferenceSegment] = []
        self._head: ReferenceSegment = self._new_segment()
        self._locations: Dict[str, ReferenceSegment] = {}
        self.stats = LogStats()

    def _new_segment(self, capacity: int = 0) -> ReferenceSegment:
        segment = ReferenceSegment(capacity=capacity or self.segment_size)
        self._segments.append(segment)
        return segment

    # -- accounting ---------------------------------------------------------

    @property
    def live_bytes(self) -> int:
        return sum(seg.live_bytes for seg in self._segments)

    @property
    def footprint_bytes(self) -> int:
        """Bytes of allocated segments (what the memory pool must hold).

        A never-written (fully empty) segment is only a reservation and
        is not charged against the pool, so an empty log has footprint 0.
        """
        return sum(seg.capacity for seg in self._segments if seg.used_bytes > 0)

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
        """Nothing is cached here, so there is nothing to drift."""

    # -- mutation -----------------------------------------------------------

    def append(self, key: str, size: int) -> None:
        """Append an entry; an existing entry for ``key`` becomes dead."""
        if size < 0:
            raise CacheError("entry size must be non-negative")
        if key in self._locations:
            self.delete(key)
        if size > self.segment_size:
            # Jumbo entry: dedicated segment of exact size.
            segment = self._new_segment(capacity=size)
        elif size > self._head.free_bytes:
            self._head = self._new_segment()
            segment = self._head
        else:
            segment = self._head
        segment.live[key] = size
        self._locations[key] = segment
        self.stats.appends += 1

    def delete(self, key: str) -> int:
        """Mark the entry dead; returns its size."""
        segment = self._locations.pop(key, None)
        if segment is None:
            raise CacheError(f"key not in log: {key}")
        size = segment.live.pop(key)
        segment.dead_bytes += size
        self.stats.deletes += 1
        # A fully dead, non-head segment is reclaimed immediately.
        if segment is not self._head and not segment.live:
            self._segments.remove(segment)
            self.stats.segments_freed += 1
        return size

    def clean(self) -> Tuple[int, int]:
        """Relocate live entries out of under-utilized closed segments.

        Returns (segments freed, live bytes relocated).  Relocation uses
        the normal append path, so the cleaner itself can open new head
        segments — exactly like RAMCloud's cleaner.
        """
        victims = [
            seg
            for seg in list(self._segments)
            if seg is not self._head and seg.utilization < CLEAN_UTILIZATION
        ]
        freed = 0
        relocated = 0
        for segment in victims:
            if segment not in self._segments:
                continue  # already freed by a delete during relocation
            entries = list(segment.live.items())
            for key, size in entries:
                self.delete(key)  # may auto-free the segment on last entry
                self.append(key, size)
                relocated += size
            if segment in self._segments:
                self._segments.remove(segment)
                self.stats.segments_freed += 1
            freed += 1
        self.stats.cleanings += 1
        self.stats.relocated_bytes += relocated
        return freed, relocated
