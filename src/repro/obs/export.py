"""Machine-readable exports of metrics snapshots and trace summaries.

The JSON document written by :func:`export_json` is the repo's common
observability format: ``repro report``, the ``--trace`` CLI flag and
the CI bench gate (``scripts/check_bench.py``) all emit it, and
:func:`load_json` round-trips it for programmatic consumers.
"""

from __future__ import annotations

import csv
import json
import os
from typing import IO, List, Optional, Union

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import merged_summary, Tracer

__all__ = [
    "export_csv",
    "export_json",
    "load_json",
    "read_csv_rows",
    "spans_payload",
    "write_document",
]

PathOrIO = Union[str, "os.PathLike[str]", IO[str]]


def spans_payload(
    tracers: List[Tracer], include_spans: bool = False
) -> dict:
    """Aggregate one or more tracers into a JSON-safe dict."""
    merged = merged_summary(tracers)
    payload = {
        # Every finished span is in exactly one per-name aggregate.
        "finished": sum(agg["count"] for agg in merged.values()),
        "started": sum(tracer.started for tracer in tracers),
        "dropped": sum(tracer.dropped for tracer in tracers),
        "summary": merged,
    }
    if include_spans:
        payload["spans"] = [
            span.to_dict() for tracer in tracers for span in tracer.spans
        ]
    return payload


def _open_sink(sink: PathOrIO):
    """Returns (file object, needs_close)."""
    if hasattr(sink, "write"):
        return sink, False
    path = os.fspath(sink)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return open(path, "w", encoding="utf-8"), True


def write_document(sink: PathOrIO, document: dict) -> dict:
    """Serialize an observability document as indented, sorted JSON."""
    out, needs_close = _open_sink(sink)
    try:
        json.dump(document, out, indent=2, sort_keys=True, default=str)
        out.write("\n")
    finally:
        if needs_close:
            out.close()
    return document


def export_json(
    sink: PathOrIO,
    registry: Optional[MetricsRegistry] = None,
    tracers: Optional[List[Tracer]] = None,
    meta: Optional[dict] = None,
    include_spans: bool = False,
) -> dict:
    """Write the unified observability document; returns it as a dict."""
    document: dict = {"format": "repro-obs", "version": 1}
    if meta:
        document["meta"] = dict(meta)
    if registry is not None:
        document.update(registry.snapshot())
    if tracers is not None:
        document["spans"] = spans_payload(tracers, include_spans=include_spans)
    return write_document(sink, document)


def load_json(source: PathOrIO) -> dict:
    if hasattr(source, "read"):
        return json.load(source)
    with open(os.fspath(source), encoding="utf-8") as f:
        return json.load(f)


def export_csv(sink: PathOrIO, registry: MetricsRegistry) -> int:
    """Flatten a registry snapshot to CSV rows; returns the row count.

    Columns: ``source,metric,kind,labels,field,value``.  Instrument
    series produce one row per (label set, field); collector entries
    produce one row each with empty labels.
    """
    snapshot = registry.snapshot()
    out, needs_close = _open_sink(sink)
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["source", "metric", "kind", "labels", "field", "value"])
        count = 0
        for name, entry in snapshot["metrics"].items():
            for point in entry["series"]:
                labels = json.dumps(point["labels"], sort_keys=True)
                value = point["value"]
                if isinstance(value, dict):  # histogram stats
                    for field in ("count", "sum", "min", "max", "mean"):
                        writer.writerow(
                            ["metric", name, entry["kind"], labels,
                             field, value[field]]
                        )
                        count += 1
                else:
                    writer.writerow(
                        ["metric", name, entry["kind"], labels, "value", value]
                    )
                    count += 1
        for collector, values in snapshot["collected"].items():
            for key, value in values.items():
                writer.writerow(
                    ["collected", f"{collector}.{key}", "counter", "{}",
                     "value", value]
                )
                count += 1
        return count
    finally:
        if needs_close:
            out.close()


def read_csv_rows(source: PathOrIO) -> List[dict]:
    """Parse an :func:`export_csv` file back into dict rows."""
    if hasattr(source, "read"):
        reader = csv.DictReader(source)
        return list(reader)
    with open(os.fspath(source), encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


def csv_value(rows: List[dict], metric: str, field: str = "value") -> float:
    """Look up one numeric value in parsed CSV rows (test helper)."""
    for row in rows:
        if row["metric"] == metric and row["field"] == field:
            return float(row["value"])
    raise KeyError(f"{metric}/{field} not found")
