#!/usr/bin/env python
"""CI bench gate: the seeded exactness gate.

Runs the Figure 7 single-stage quick benchmark (2 functions x 2 input
sizes x 5 configurations), exports the headline latencies as a metrics
JSON through the :mod:`repro.obs` layer (uploaded as a CI artifact),
and fails when any headline latency regresses more than the tolerance
over the checked-in baseline (``scripts/bench_baseline.json``).

A small seeded chaos cell (crashes + RSDS episodes + history recorder)
also runs, and its deterministic counters (ops/completed/failed/
violations) are exact-gated through the ``micro`` section so the
fault-injected workload itself cannot silently drift.  A denser
sibling of that cell, tight enough that the cache hands memory back,
contributes its summed ``LogStats`` (cleanings, segments freed, bytes
relocated) the same way: they pin the log cleaner's behaviour.

The baseline file is sectioned (``bench-baseline/v2``): ``headlines``
holds the Figure 7 latencies (tolerance-gated) and ``micro`` holds
seeded workload counters (exact-match gated, e.g. the tenants arrival
count).  *Every* baseline key must have a measured counterpart — a
benchmark that silently stops running fails the gate instead of
passing it.

The simulation is fully seeded and nothing gated is wall-clock (that
is ``perf/run.py``'s job), so on an unchanged tree the measured values
match the baseline exactly; the 25% tolerance only absorbs intentional
small model/latency adjustments, and a headline that moved inside it
prints as a ``note:``.  Regenerate the baseline after a deliberate
change with ``--write-baseline``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.bench.fig7 import run_fig7_single  # noqa: E402
from repro.obs import export_json, MetricsRegistry  # noqa: E402
from repro.sim.latency import KB  # noqa: E402
from repro.workloads.functions import FIGURE7_FUNCTIONS  # noqa: E402

TOLERANCE = 0.25
BASELINE_SCHEMA = "bench-baseline/v2"
BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "bench_baseline.json"
)
DEFAULT_OUT = "results/bench_metrics.json"

BENCH_FUNCTIONS = 2
BENCH_SIZES = (16 * KB, 128 * KB)


def measure() -> dict:
    """Headline latencies keyed "workload/size/config" -> total seconds."""
    rows = run_fig7_single(
        FIGURE7_FUNCTIONS[:BENCH_FUNCTIONS], sizes=BENCH_SIZES
    )
    return {
        f"{row.workload}/{row.input_size}/{row.config}": row.total_s
        for row in rows
    }


def measure_micro() -> dict:
    """Seeded workload counters, keyed "family/name" -> exact value.

    Unlike the wall-clock rates these are deterministic by
    construction, so the gate requires an exact match: any drift means
    a seeded generator changed behaviour.
    """
    from repro.workloads.tenants import (  # noqa: E402
        MergedArrivalStream,
        TenantWorkloadConfig,
        synthesize_tenants,
    )

    config = TenantWorkloadConfig(n_tenants=200, mean_interval_s=60.0, seed=0)
    stream = MergedArrivalStream(synthesize_tenants(config), deadline=3600.0)
    return {"tenants/arrivals_200t_1h": sum(1 for _ in stream)}


def measure_faulted_cell() -> dict:
    """Seeded chaos cells: deterministic counters for ``micro``."""
    from dataclasses import replace  # noqa: E402

    from repro.bench.grid import run_cell, TenantCell  # noqa: E402

    cell = TenantCell(
        intensity="medium",
        n_tenants=24,
        mean_interval_s=6.0,
        duration_s=20.0,
        seed=11,
        warmup_s=10.0,
    )
    roomy = run_cell(cell)
    # That cell is roomy — its log cleaner never runs.  Five times the
    # tenants at twice the rate make the cache hand memory back, and
    # the summed LogStats then pin what the cleaner picks and relocates:
    # they move even when an op history (every counter above) survives.
    dense = run_cell(replace(cell, n_tenants=120, mean_interval_s=3.0))
    log_stats = dense.log_stats
    return {
        "faults/cell_ops": roomy.ops,
        "faults/cell_completed": roomy.completed,
        "faults/cell_failed": roomy.failed,
        "faults/cell_violations": roomy.violations_total,
        "faults/dense_cell_log_cleanings": log_stats["cleanings"],
        "faults/dense_cell_log_segments_freed": log_stats["segments_freed"],
        "faults/dense_cell_log_relocated_bytes": log_stats["relocated_bytes"],
    }


def load_baseline(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def compare(baseline: dict, headlines: dict, micro: dict) -> list:
    """Failures of the measured values against ``baseline``; what moved
    without failing, or is measured but not gated, prints as a note."""
    failures = []
    # Every baseline key must be measured: a benchmark that silently
    # stops running is a gate failure, not a pass.
    for key, base in sorted(baseline["headlines"].items()):
        measured = headlines.get(key)
        if measured is None:
            failures.append(f"{key}: baseline headline not measured this run")
        elif measured != base:
            moved = (
                f"{key}: {measured!r}s vs baseline {base!r}s "
                f"({100.0 * (measured - base) / base:+.1f}%)"
            )
            if measured > base * (1.0 + TOLERANCE):
                failures.append(moved)
            else:
                print(f"note: inside the tolerance but not exact: {moved}")
    for key, base in sorted(baseline["micro"].items()):
        measured = micro.get(key)
        if measured is None:
            failures.append(f"{key}: baseline micro entry not measured")
        elif measured != base:
            failures.append(
                f"{key}: {measured} vs baseline {base} "
                "(seeded counter drifted)"
            )
    for key in sorted(set(headlines) - set(baseline["headlines"])):
        print(f"note: new headline not in baseline: {key}")
    for key in sorted(set(micro) - set(baseline["micro"])):
        print(f"note: new micro entry not in baseline: {key}")
    return failures


def export_metrics(headlines: dict, micro: dict, out: str) -> None:
    registry = MetricsRegistry()
    gauge = registry.gauge(
        "bench_total_s", help="Figure 7 single-stage headline latency (s)"
    )
    for key, total_s in headlines.items():
        workload, size, config = key.split("/")
        gauge.set(total_s, workload=workload, input_size=size, config=config)
    registry.register_collector("headlines", lambda: dict(headlines))
    micro_gauge = registry.gauge(
        "bench_micro", help="seeded workload counters (exact-match gated)"
    )
    for key, value in micro.items():
        micro_gauge.set(float(value), key=key)
    registry.register_collector("micro", lambda: dict(micro))
    export_json(
        out,
        registry=registry,
        meta={
            "benchmark": "fig7-single-quick",
            "tolerance": TOLERANCE,
            "baseline": os.path.relpath(BASELINE_PATH),
        },
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default=DEFAULT_OUT, help="metrics JSON artifact path"
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="record the current numbers as the new baseline and exit",
    )
    args = parser.parse_args(argv)

    headlines = measure()
    micro = measure_micro()
    micro.update(measure_faulted_cell())
    export_metrics(headlines, micro, args.out)
    print(f"[bench metrics written to {args.out}]")

    if args.write_baseline:
        doc = {
            "schema": BASELINE_SCHEMA,
            "headlines": dict(sorted(headlines.items())),
            "micro": dict(sorted(micro.items())),
        }
        with open(BASELINE_PATH, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print(f"[baseline written to {BASELINE_PATH}]")
        return 0

    if not os.path.exists(BASELINE_PATH):
        print(
            f"baseline missing: {BASELINE_PATH} (run with --write-baseline)",
            file=sys.stderr,
        )
        return 1
    baseline = load_baseline(BASELINE_PATH)
    failures = compare(baseline, headlines, micro)

    if failures:
        print(
            f"bench gate FAILED ({len(failures)} regression(s) "
            f">{TOLERANCE:.0%}):",
            file=sys.stderr,
        )
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(
        f"bench gate OK: {len(baseline['headlines'])} headlines within "
        f"{TOLERANCE:.0%} of baseline, "
        f"{len(baseline['micro'])} micro entries exact"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
