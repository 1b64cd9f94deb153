"""Tracing keyed to simulated time.

A :class:`Tracer` produces nestable :class:`Span` objects whose start
and end instants come from a *clock* callable — in this repo, a
:class:`~repro.sim.kernel.Kernel`'s ``now`` — so traces line up exactly
with the discrete-event timeline the paper's figures are drawn from.

Tracing is **off by default**: every :class:`~repro.sim.kernel.Kernel`
asks :func:`tracer_for_clock` for its tracer, and unless
:func:`enable_tracing` was called first the shared :data:`NULL_TRACER`
is returned.  The null tracer hands out one immortal no-op span, so an
instrumented call site costs a method call and a small kwargs dict —
nothing is recorded and no per-span object is allocated.

Typical use from the CLI (``--trace``) or a test::

    enable_tracing()
    try:
        ...build kernels, run the experiment...
        summary = merged_summary()
    finally:
        reset_tracing()
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TraceDigest",
    "Tracer",
    "absorb",
    "active_tracers",
    "all_finished_spans",
    "enable_tracing",
    "merged_summary",
    "reset_tracing",
    "tracer_for_clock",
    "tracing_enabled",
]


class Span:
    """One timed operation; nests via ``parent_id`` / :meth:`child`."""

    __slots__ = ("name", "span_id", "parent_id", "start", "end", "labels", "_tracer")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: Optional[int],
        start: float,
        labels: Dict[str, object],
    ):
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        self.labels = labels

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} has not finished")
        return self.end - self.start

    def child(self, name: str, **labels: object) -> "Span":
        """Start a nested span under this one."""
        return self._tracer.start(name, parent=self, **labels)

    def annotate(self, **labels: object) -> "Span":
        self.labels.update(labels)
        return self

    def finish(self, **labels: object) -> "Span":
        """Close the span at the clock's current instant (idempotent)."""
        if self.end is None:
            if labels:
                self.labels.update(labels)
            self.end = self._tracer._clock()
            self._tracer._record(self)
        return self

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration_s": None if self.end is None else self.duration,
            "labels": dict(self.labels),
        }

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.finish()

    def __repr__(self) -> str:
        state = f"end={self.end}" if self.finished else "open"
        return f"<Span {self.name!r} id={self.span_id} start={self.start} {state}>"


class Tracer:
    """Collects finished spans; timestamps come from ``clock``."""

    #: Call sites may gate expensive label computation on this flag.
    enabled = True

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        max_spans: int = 1_000_000,
    ):
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._ids = itertools.count(1)
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.started = 0
        self.dropped = 0

    def start(self, name: str, parent: Optional[Span] = None, **labels: object) -> Span:
        self.started += 1
        return Span(
            self,
            name,
            next(self._ids),
            parent.span_id if parent is not None else None,
            self._clock(),
            labels,
        )

    def _record(self, span: Span) -> None:
        if len(self.spans) < self.max_spans:
            self.spans.append(span)
        else:
            self.dropped += 1

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Aggregate finished spans by name: count/total/min/max/mean."""
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            d = span.duration
            agg = out.get(span.name)
            if agg is None:
                out[span.name] = {
                    "count": 1,
                    "total_s": d,
                    "min_s": d,
                    "max_s": d,
                }
            else:
                agg["count"] += 1
                agg["total_s"] += d
                agg["min_s"] = min(agg["min_s"], d)
                agg["max_s"] = max(agg["max_s"], d)
        for agg in out.values():
            agg["mean_s"] = agg["total_s"] / agg["count"]
        return out


class _NullSpan(Span):
    """The immortal span the null tracer hands to every call site."""

    __slots__ = ()

    def __init__(self):
        super().__init__(NULL_TRACER, "null", 0, None, 0.0, {})

    def child(self, name: str, **labels: object) -> "Span":
        return self

    def annotate(self, **labels: object) -> "Span":
        return self

    def finish(self, **labels: object) -> "Span":
        return self


class NullTracer(Tracer):
    """No-op tracer: records nothing, allocates nothing per call."""

    enabled = False

    def __init__(self):
        super().__init__(max_spans=0)

    def start(self, name: str, parent: Optional[Span] = None, **labels: object) -> Span:
        return NULL_SPAN

    def _record(self, span: Span) -> None:  # pragma: no cover - unreachable
        pass


NULL_TRACER = NullTracer()
NULL_SPAN = _NullSpan()

# -- global switch -----------------------------------------------------------
#
# Experiments build their kernels deep inside bench functions, so the
# CLI cannot hand a tracer down explicitly.  Instead the kernel asks
# this module for one at construction time; enable_tracing() flips all
# kernels built afterwards to real tracers, which are kept here so the
# caller can collect every trace after the run.

_enabled = False
_tracers: List[Tracer] = []


def enable_tracing() -> None:
    """Make subsequently-built kernels record real traces."""
    global _enabled
    _enabled = True


def disable_tracing() -> None:
    global _enabled
    _enabled = False


def reset_tracing() -> None:
    """Disable tracing and drop every collected tracer."""
    disable_tracing()
    _tracers.clear()


def tracing_enabled() -> bool:
    return _enabled


def tracer_for_clock(clock: Callable[[], float]) -> Tracer:
    """The tracer a new kernel should use (null unless enabled)."""
    if not _enabled:
        return NULL_TRACER
    tracer = Tracer(clock)
    _tracers.append(tracer)
    return tracer


def active_tracers() -> List[Tracer]:
    return list(_tracers)


def all_finished_spans() -> List[Span]:
    return [span for tracer in _tracers for span in tracer.spans]


def merged_summary(
    tracers: Optional[List[Tracer]] = None,
) -> Dict[str, Dict[str, float]]:
    """Per-name span aggregates across ``tracers`` (default: every
    collected tracer)."""
    merged: Dict[str, Dict[str, float]] = {}
    for tracer in _tracers if tracers is None else tracers:
        for name, agg in tracer.summary().items():
            into = merged.get(name)
            if into is None:
                merged[name] = dict(agg)
            else:
                into["count"] += agg["count"]
                into["total_s"] += agg["total_s"]
                into["min_s"] = min(into["min_s"], agg["min_s"])
                into["max_s"] = max(into["max_s"], agg["max_s"])
    for agg in merged.values():
        agg["mean_s"] = agg["total_s"] / agg["count"]
    return merged


class TraceDigest(Tracer):
    """A sweep worker's finished trace, kept as its aggregates.

    A worker's tracers die with its process (their clocks are bound
    kernel methods, so they do not pickle); what travels back is the
    ``spans`` payload of the cell it ran, and this stand-in gives that
    payload the read side of a tracer so exports fold it in unchanged.
    """

    def __init__(self, payload: dict):
        super().__init__()
        self.started = payload["started"]
        self.dropped = payload["dropped"]
        self._summary = payload["summary"]

    def summary(self) -> Dict[str, Dict[str, float]]:
        return self._summary


def absorb(payload: dict) -> None:
    """Collect a worker's ``spans`` payload beside the local tracers."""
    _tracers.append(TraceDigest(payload))
