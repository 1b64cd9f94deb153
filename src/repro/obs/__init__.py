"""repro.obs — observability: span tracing, collectors, one document.

* :mod:`repro.obs.trace` — :class:`Tracer` with spans keyed to
  simulated time; a kernel built with tracing disabled (the default)
  has no tracer, and no instrumented site calls into this package.
* :mod:`repro.obs.registry` — :class:`MetricsRegistry`, the lazy
  collectors that snapshot the components' stats objects.
* :mod:`repro.obs.export` — :func:`export_json`, the one writer of the
  repro-obs JSON document that ``repro report``, the ``--trace`` CLI
  flag and the grid experiments emit.
"""

from repro.obs.export import export_json, spans_payload
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import (
    absorb,
    active_tracers,
    enable_tracing,
    merged_summary,
    reset_tracing,
    Span,
    Tracer,
    tracer_for_clock,
    tracing_enabled,
)

__all__ = [
    "MetricsRegistry",
    "Span",
    "Tracer",
    "absorb",
    "active_tracers",
    "enable_tracing",
    "export_json",
    "merged_summary",
    "reset_tracing",
    "spans_payload",
    "tracer_for_clock",
    "tracing_enabled",
]
