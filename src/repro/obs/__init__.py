"""repro.obs — unified observability: tracing, metrics, exports.

* :mod:`repro.obs.trace` — :class:`Tracer` with nestable spans keyed to
  simulated time; a shared no-op :data:`NULL_TRACER` keeps the
  instrumented hot paths free when tracing is disabled (the default).
* :mod:`repro.obs.registry` — :class:`MetricsRegistry` holding
  counters/gauges/histograms with labels, plus lazy collectors that
  absorb the pre-existing ad-hoc stats dataclasses.
* :mod:`repro.obs.export` — the common JSON/CSV export format consumed
  by ``repro report``, the ``--trace`` CLI flag and the CI bench gate.
"""

from repro.obs.export import (
    export_csv,
    export_json,
    load_json,
    read_csv_rows,
    spans_payload,
    write_document,
)
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import (
    absorb,
    active_tracers,
    all_finished_spans,
    enable_tracing,
    merged_summary,
    NULL_TRACER,
    NullTracer,
    reset_tracing,
    Span,
    Tracer,
    tracer_for_clock,
    tracing_enabled,
)

__all__ = [
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullTracer",
    "Span",
    "Tracer",
    "absorb",
    "active_tracers",
    "all_finished_spans",
    "enable_tracing",
    "export_csv",
    "export_json",
    "load_json",
    "merged_summary",
    "read_csv_rows",
    "reset_tracing",
    "spans_payload",
    "tracer_for_clock",
    "tracing_enabled",
    "write_document",
]
