"""Tracing keyed to simulated time.

A :class:`Tracer` produces :class:`Span` objects whose start and end
instants come from a *clock* callable — in this repo, a
:class:`~repro.sim.kernel.Kernel`'s ``now`` — so traces line up exactly
with the discrete-event timeline the paper's figures are drawn from.

Tracing is **off by default**: every :class:`~repro.sim.kernel.Kernel`
asks :func:`tracer_for_clock` for its tracer, and unless
:func:`enable_tracing` was called first it gets ``None``.  Every
instrumented call site starts a span only under ``if tracer is not
None``, so an untraced run executes no code of this package.

Typical use from the CLI (``--trace``) or a test::

    enable_tracing()
    try:
        ...build kernels, run the experiment...
        summary = merged_summary()
    finally:
        reset_tracing()
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

__all__ = [
    "Span",
    "TraceDigest",
    "Tracer",
    "absorb",
    "active_tracers",
    "enable_tracing",
    "merged_summary",
    "reset_tracing",
    "tracer_for_clock",
    "tracing_enabled",
]


class Span:
    """One timed operation: a name, its labels, its start and end."""

    __slots__ = ("name", "start", "end", "labels", "_tracer")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        start: float,
        labels: Dict[str, object],
    ):
        self._tracer = tracer
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.labels = labels

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} has not finished")
        return self.end - self.start

    def finish(self, **labels: object) -> "Span":
        """Close the span at the clock's current instant (idempotent)."""
        if self.end is None:
            if labels:
                self.labels.update(labels)
            self.end = self._tracer._clock()
            self._tracer._record(self)
        return self


class Tracer:
    """Collects finished spans; timestamps come from ``clock``."""

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        max_spans: int = 1_000_000,
    ):
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.started = 0
        self.dropped = 0

    def start(self, name: str, **labels: object) -> Span:
        self.started += 1
        return Span(self, name, self._clock(), labels)

    def _record(self, span: Span) -> None:
        if len(self.spans) < self.max_spans:
            self.spans.append(span)
        else:
            self.dropped += 1

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


# -- global switch -----------------------------------------------------------
#
# Experiments build their kernels deep inside bench functions, so the
# CLI cannot hand a tracer down explicitly.  Instead the kernel asks
# this module for one at construction time; after enable_tracing() every
# kernel built gets a tracer, which is kept here so the caller can
# collect every trace after the run.

_enabled = False
_tracers: List[Tracer] = []


def enable_tracing() -> None:
    """Make subsequently-built kernels record real traces."""
    global _enabled
    _enabled = True


def reset_tracing() -> None:
    """Disable tracing and drop every collected tracer."""
    global _enabled
    _enabled = False
    _tracers.clear()


def tracing_enabled() -> bool:
    return _enabled


def tracer_for_clock(clock: Callable[[], float]) -> Optional[Tracer]:
    """The tracer a new kernel should use (``None`` unless enabled)."""
    if not _enabled:
        return None
    tracer = Tracer(clock)
    _tracers.append(tracer)
    return tracer


def active_tracers() -> List[Tracer]:
    return list(_tracers)


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
