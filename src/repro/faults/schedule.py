"""Fault schedules: scripted failure timelines.

A schedule is a time-sorted list of :class:`FaultEvent` records.  Two
families of events exist:

* **node events** (``crash``, ``restart``) — instantaneous, target one
  cache node by id;
* **episodes** (``rsds_outage``, ``rsds_brownout``, ``slow_network``,
  ``bypass_cache``) — have a ``duration``; the injector enters the
  condition at ``at`` and exits it ``duration`` seconds later.
  Brown-outs and slow-network windows carry a latency ``scale``.

The JSON format is a single object ``{"events": [...]}``, one dict per
event::

    {"events": [
      {"at": 60.0,  "kind": "crash",   "node": "w1"},
      {"at": 150.0, "kind": "restart", "node": "w1"},
      {"at": 200.0, "kind": "rsds_outage",   "duration": 20.0},
      {"at": 260.0, "kind": "rsds_brownout", "duration": 30.0, "scale": 4.0},
      {"at": 300.0, "kind": "slow_network",  "duration": 30.0, "scale": 3.0},
      {"at": 340.0, "kind": "bypass_cache",  "duration": 30.0}
    ]}
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Instantaneous events targeting one cache node.
NODE_KINDS = frozenset({"crash", "restart"})
#: Timed conditions the injector enters and exits.
EPISODE_KINDS = frozenset(
    {"rsds_outage", "rsds_brownout", "slow_network", "bypass_cache"}
)
#: Episode kinds whose ``scale`` is meaningful (latency multipliers).
SCALED_KINDS = frozenset({"rsds_brownout", "slow_network"})

ALL_KINDS = NODE_KINDS | EPISODE_KINDS


class ScheduleError(ValueError):
    """A fault schedule failed validation."""


@dataclass(frozen=True)
class FaultEvent:
    """One entry of a fault schedule."""

    at: float
    kind: str
    node: Optional[str] = None
    duration: float = 0.0
    scale: float = 1.0

    def validate(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ScheduleError(
                f"unknown fault kind {self.kind!r} "
                f"(expected one of {sorted(ALL_KINDS)})"
            )
        if self.at < 0:
            raise ScheduleError(f"{self.kind}: negative time {self.at}")
        if self.kind in NODE_KINDS and not self.node:
            raise ScheduleError(f"{self.kind}: missing 'node'")
        if self.kind in EPISODE_KINDS and self.duration <= 0:
            raise ScheduleError(
                f"{self.kind} at t={self.at}: episode needs duration > 0"
            )
        if self.kind in SCALED_KINDS and self.scale <= 0:
            raise ScheduleError(
                f"{self.kind} at t={self.at}: scale must be > 0"
            )

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultEvent":
        unknown = set(payload) - {"at", "kind", "node", "duration", "scale"}
        if unknown:
            raise ScheduleError(f"unknown fault-event fields: {sorted(unknown)}")
        try:
            event = cls(
                at=float(payload["at"]),
                kind=str(payload["kind"]),
                node=payload.get("node"),
                duration=float(payload.get("duration", 0.0)),
                scale=float(payload.get("scale", 1.0)),
            )
        except KeyError as missing:
            raise ScheduleError(f"fault event missing field {missing}") from None
        event.validate()
        return event

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"at": self.at, "kind": self.kind}
        if self.node is not None:
            out["node"] = self.node
        if self.kind in EPISODE_KINDS:
            out["duration"] = self.duration
        if self.kind in SCALED_KINDS:
            out["scale"] = self.scale
        return out

    @property
    def end(self) -> float:
        return self.at + self.duration


@dataclass
class FaultSchedule:
    """A validated, time-sorted fault timeline."""

    events: List[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        for event in self.events:
            event.validate()
        # Stable sort: same-instant events keep their authored order.
        self.events = sorted(self.events, key=lambda e: e.at)
        # Per-node crash-window discipline: a node must be restarted
        # before it can crash again, and never restarted while up.
        # Without this, overlapping windows fail deep inside the
        # injector (double recovery, repair racing a dead node).
        crashed_at: Dict[str, float] = {}
        for event in self.events:
            if event.kind == "crash":
                if event.node in crashed_at:
                    raise ScheduleError(
                        f"crash at t={event.at}: node {event.node!r} is "
                        f"already down (crashed at t="
                        f"{crashed_at[event.node]}) — add a restart "
                        "before re-crashing it, or target another node"
                    )
                crashed_at[event.node] = event.at
            elif event.kind == "restart":
                if event.node not in crashed_at:
                    raise ScheduleError(
                        f"restart at t={event.at}: node {event.node!r} "
                        "is not down — pair every restart with a "
                        "preceding crash of the same node"
                    )
                del crashed_at[event.node]

    # -- (de)serialization -------------------------------------------------

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultSchedule":
        if not isinstance(payload, dict) or "events" not in payload:
            raise ScheduleError('schedule must be {"events": [...]}')
        return cls([FaultEvent.from_dict(e) for e in payload["events"]])

    @classmethod
    def load(cls, path: str) -> "FaultSchedule":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def to_dict(self) -> Dict[str, Any]:
        return {"events": [event.to_dict() for event in self.events]}

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")

    # -- inspection --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def duration(self) -> float:
        """Time of the last effect (episode ends included)."""
        return max((event.end for event in self.events), default=0.0)

    def nodes(self) -> List[str]:
        return sorted(
            {event.node for event in self.events if event.node is not None}
        )
