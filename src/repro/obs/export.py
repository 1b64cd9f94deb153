"""The repro-obs document and its one writer.

``repro report``, the ``--trace`` CLI flag and the grid experiments all
write their JSON through :func:`export_json`: a ``format``/``version``
header plus whichever of ``meta``, ``collected`` (a registry snapshot's
collectors) and ``spans`` (per-name span aggregates) the caller has.
"""

from __future__ import annotations

import json
import os
from typing import List, Optional, Union

from repro.obs.trace import merged_summary, Tracer

__all__ = ["export_json", "spans_payload"]


def spans_payload(tracers: List[Tracer]) -> dict:
    """Aggregate one or more tracers into a JSON-safe dict."""
    merged = merged_summary(tracers)
    return {
        # Every finished span is in exactly one per-name aggregate.
        "finished": sum(agg["count"] for agg in merged.values()),
        "started": sum(tracer.started for tracer in tracers),
        "dropped": sum(tracer.dropped for tracer in tracers),
        "summary": merged,
    }


def export_json(
    path: Union[str, "os.PathLike[str]"],
    meta: Optional[dict] = None,
    collected: Optional[dict] = None,
    tracers: Optional[List[Tracer]] = None,
) -> dict:
    """Write one repro-obs document as indented, sorted JSON (creating
    the parent directory); returns it as a dict."""
    document: dict = {"format": "repro-obs", "version": 1}
    if meta:
        document["meta"] = dict(meta)
    if collected is not None:
        document["collected"] = collected
    if tracers is not None:
        document["spans"] = spans_payload(tracers)
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as out:
        json.dump(document, out, indent=2, sort_keys=True, default=str)
        out.write("\n")
    return document
