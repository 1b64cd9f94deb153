"""Host time by layer: ``cProfile`` self time aggregated by package.

The simulator is a generator-based discrete-event loop that interleaves
thousands of invocations per host millisecond, so there is no host-side
interval that belongs to one invocation; what can be measured from
outside is how much interpreter time each package's own code consumed
while the measured phase ran.  ``cProfile`` charges every Python call
but not the work inside native code, which inflates call-heavy layers:
the shares locate a cost, the untraced run measures it.
"""

from __future__ import annotations

import cProfile
import os
from typing import Any, Dict, List

#: The packages under ``src/repro/`` — the layers of the ledger.
PACKAGES = (
    "sim", "faas", "core", "kvcache", "cache", "storage",
    "workloads", "ml", "checks", "faults", "obs", "bench",
)
#: Every bucket of the ledger: the packages, then what is outside them.
LAYERS = PACKAGES + ("numpy", "builtins", "other")

#: Code objects compiled from generated source carry these pseudo file
#: names; they belong to the package that generated them.
_GENERATED = (("<sim-fastpath", "sim"), ("<compiled-tree", "ml"))
#: Rows kept for ``trace.json`` (the heaviest by self time).
TOP_ROWS = 80

_REPRO = os.sep + os.path.join("src", "repro") + os.sep


def layer_of(filename: str) -> str:
    """The ledger bucket a code object's file name belongs to.  A file of
    a package this table does not know lands in ``other``: a refactor
    that moves code is reported, not crashed on."""
    if filename == "~":
        return "builtins"
    for prefix, layer in _GENERATED:
        if filename.startswith(prefix):
            return layer
    at = filename.find(_REPRO)
    if at >= 0:
        package = filename[at + len(_REPRO):].split(os.sep, 1)[0]
        return package if package in PACKAGES else "other"
    if f"{os.sep}numpy{os.sep}" in filename:
        return "numpy"
    return "other"


def start() -> cProfile.Profile:
    profiler = cProfile.Profile()
    profiler.enable()
    return profiler


def stop(profiler: cProfile.Profile) -> Dict[str, Any]:
    """Disable the profiler and aggregate what it saw."""
    profiler.disable()
    self_s = dict.fromkeys(LAYERS, 0.0)
    primitive_calls = 0
    rows: List[Dict[str, Any]] = []
    for entry in profiler.getstats():
        code = entry.code
        if isinstance(code, str):  # a built-in: "<built-in method ...>"
            filename, function = "~", code
        else:
            filename, function = code.co_filename, code.co_name
        layer = layer_of(filename)
        self_s[layer] += entry.inlinetime
        primitive_calls += entry.callcount - entry.reccallcount
        rows.append(
            {
                "package": layer,
                "function": function,
                "calls": entry.callcount,
                "self_s": entry.inlinetime,
                "cum_s": entry.totaltime,
            }
        )
    rows.sort(key=lambda row: row["self_s"], reverse=True)
    total = sum(self_s.values())
    return {
        "self_s": self_s,
        "share": {
            layer: (value / total if total else 0.0)
            for layer, value in self_s.items()
        },
        "primitive_calls": primitive_calls,
        "rows": rows[:TOP_ROWS],
    }
