"""``repro perf``: record what the repository benchmark measured.

One harness times the simulator: ``perf/run.py`` (``BENCHMARK.json``).
This front times nothing itself: it runs that command in the checkout,
report streaming through, and appends what ``perf/out/results.json``
holds to ``BENCH_perf.json`` as one schema-2 entry (dispersion, layer
shares, fingerprints).  Comparing two runs is ``perf/compare.py``'s job.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from datetime import datetime, timezone
from typing import Any, Dict, Optional

SCHEMA_VERSION = 2
#: The directory above ``src/``; in a checkout it also holds ``perf/``.
CHECKOUT = os.path.abspath(os.path.join(os.path.dirname(__file__), "../../.."))


class PerfFailed(Exception):
    """The benchmark could not be run, or what it measured is not sound."""


def measure(quick: bool) -> Dict[str, Any]:
    """Run the benchmark and return its ``results.json`` document."""
    for needed in ("perf/run.py", "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(CHECKOUT, needed)):
            raise PerfFailed(
                f"'perf' needs a source checkout: no {needed} under {CHECKOUT} "
                "(an installed package does not carry the benchmark)"
            )
    sys.stdout.flush()
    flags = ["--smoke"] if quick else ["--seed", "0"]
    done = subprocess.run([sys.executable, "perf/run.py", *flags], cwd=CHECKOUT)
    if done.returncode != 0:
        raise PerfFailed(f"perf/run.py exited {done.returncode}; nothing recorded")
    with open(os.path.join(CHECKOUT, "perf", "out", "results.json")) as fh:
        document = json.load(fh)
    failed = [name for name, r in document["workloads"].items() if not r["correct"]]
    if failed:
        raise PerfFailed(f"output checks failed on {failed}; nothing recorded")
    return document


def build_entry(document: Dict[str, Any], label: Optional[str]) -> Dict[str, Any]:
    """One trajectory entry from a complete ``results.json`` document."""
    head = document["header"]
    workloads = {
        name: {
            "end_to_end": {
                key: {"median": s["value"], "q1": s["q1"], "q3": s["q3"], "n": s["n"]}
                for key, s in result["end_to_end"].items()
            },
            "per_layer": {
                key: value
                for key, value in result["per_layer"].items()
                if key.startswith("host.") and key.endswith(".share")
            },
            "fingerprint": result["fingerprint"],
        }
        for name, result in document["workloads"].items()
    }
    return {
        "schema": SCHEMA_VERSION,
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "commit": head["git_sha"],
        "label": label,
        "machine": {"python": head["python"], "cpus": head["nproc"]},
        "seed": head["seed"],
        "workloads": workloads,
        "micro": {name: row["value"] for name, row in document["micro"].items()},
    }


def record(entry: Dict[str, Any], path: str) -> None:
    """Append ``entry``; earlier ones (schema 1 too) are rewritten unchanged."""
    entries = []
    if os.path.exists(path):
        with open(path) as fh:
            entries = json.load(fh)["entries"]
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    doc = {"schema": SCHEMA_VERSION, "entries": [*entries, entry]}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def run_perf(quick: bool, label: Optional[str], path: str) -> str:
    """Measure, then record — unless the cells were the tiny ``--smoke``
    ones, whose numbers compare with nothing."""
    document = measure(quick)
    if document["header"]["smoke"]:
        return f"[smoke cells, checks passed: nothing appended to {path}]"
    entry = build_entry(document, label)
    record(entry, path)
    return f"[entry {label!r} @ {entry['commit'][:12]} appended to {path}]"
