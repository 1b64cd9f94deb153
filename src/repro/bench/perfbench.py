"""Wall-clock performance trajectory for the simulator itself.

``repro perf`` measures three layers and appends one schema-versioned
entry to ``BENCH_perf.json`` at the repo root, so the simulator's own
speed is tracked across PRs the same way the simulated results are:

* **kernel** — events/second on synthetic event-loop patterns.  The
  headline number is the *sleep chain* (a process doing back-to-back
  ``yield delay`` sleeps), the dominant pattern in the real
  simulations; chain/churn/event/immediate cover the other hot paths.
* **ml** — the per-function model layer: ``ml_train`` (J48 fits/s on a
  representative curated sample set, presorted + incremental path) and
  ``ml_predict`` (rows/s through the compiled tree walk, with its
  speedup over the recursive reference walk).
* **macro** — simulated seconds per wall second on the Figure 9/10
  macro workload (kernel + models + caching, the end-to-end rate), plus
  a chaos-faulted macro cell (crashes + RSDS episodes + the history
  recorder) so fault-dispatch overhead stays visible on the trajectory.
* **sweep** — wall seconds for a small Figure 8 sweep, serial vs the
  parallel runner's default fan-out, plus a trainer-heavy macro cell
  timed cold (empty warm-model cache) and warm (cache hit).

Numbers are wall-clock and machine-dependent; the file records a
trajectory on whatever machine CI runs, not a portable benchmark.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from datetime import datetime, timezone
from time import perf_counter
from typing import Dict, List, Optional

from repro.sim import Event, Kernel

SCHEMA_VERSION = 1

#: Default trajectory file, at the repo root when run from a checkout.
DEFAULT_PATH = "BENCH_perf.json"


# ---------------------------------------------------------------------------
# Kernel microbenchmarks (events/second).


def _bench_sleep(n: int) -> float:
    """Headline: back-to-back bare-delay sleeps, one per event."""
    kernel = Kernel()

    def proc():
        for _ in range(n):
            yield 1.0

    kernel.process(proc())
    start = perf_counter()
    kernel.run()
    return n / (perf_counter() - start)


def _bench_chain(n: int) -> float:
    """Sequential timeout objects (the pre-fast-path sleep idiom)."""
    kernel = Kernel()

    def proc():
        for _ in range(n):
            yield kernel.timeout(1.0)

    kernel.process(proc())
    start = perf_counter()
    kernel.run()
    return n / (perf_counter() - start)


def _bench_churn(n: int) -> float:
    """Process churn: spawn/bootstrap/terminate short-lived processes."""
    kernel = Kernel()

    def child():
        yield kernel.timeout(0.5)

    def spawner():
        for _ in range(n):
            yield kernel.process(child())

    kernel.process(spawner())
    start = perf_counter()
    kernel.run()
    return (3 * n) / (perf_counter() - start)


def _bench_event(n: int) -> float:
    """Event signaling: producer/consumer ping-pong via succeed()."""
    kernel = Kernel()
    box = {"ev": None}

    def producer():
        for _ in range(n):
            yield kernel.timeout(0.001)
            ev = box["ev"]
            if ev is not None:
                box["ev"] = None
                ev.succeed(42)

    def consumer():
        for _ in range(n):
            ev = Event(kernel)
            box["ev"] = ev
            yield ev

    kernel.process(producer())
    kernel.process(consumer())
    start = perf_counter()
    kernel.run()
    return (3 * n) / (perf_counter() - start)


def _bench_immediate(n: int) -> float:
    """Same-instant delivery: pre-triggered events yielded in a loop."""
    kernel = Kernel()

    def proc():
        for _ in range(n):
            ev = Event(kernel)
            ev.succeed(1)
            yield ev

    kernel.process(proc())
    start = perf_counter()
    kernel.run()
    return n / (perf_counter() - start)


KERNEL_PATTERNS = {
    "sleep": _bench_sleep,
    "chain": _bench_chain,
    "churn": _bench_churn,
    "event": _bench_event,
    "immediate": _bench_immediate,
}


def bench_kernel(n: int = 200_000, repeats: int = 3) -> Dict[str, float]:
    """Best-of-``repeats`` events/second for each kernel pattern."""
    results: Dict[str, float] = {}
    for name, fn in KERNEL_PATTERNS.items():
        results[name] = max(fn(n) for _ in range(repeats))
    return results


# ---------------------------------------------------------------------------
# ML microbenchmarks (the per-invocation / per-retrain layer).


def _ml_dataset(n_rows: int, seed: int = 7):
    """A representative curated sample set: mixed numeric and nominal
    features, weighted rows (the §5.3.3 shape the trainer fits)."""
    import numpy as np

    from repro.ml.dataset import Dataset

    rng = np.random.default_rng(seed)
    codecs = ("h264", "vp9", "av1", "mjpeg")
    rows = []
    labels = []
    weights = []
    for _ in range(n_rows):
        size = float(rng.integers(1, 4096))
        sigma = float(rng.uniform(0.0, 8.0))
        rows.append(
            {
                "in_size": size * 1024.0,
                "pixels": size * 210.0,
                "arg_sigma": sigma,
                "codec": codecs[int(rng.integers(0, len(codecs)))],
                "arg_flag": bool(rng.integers(0, 2)),
            }
        )
        labels.append(int(min(127, (size * (1.0 + sigma / 4.0)) // 512)))
        weights.append(3.0 if rng.random() < 0.2 else 1.0)
    return Dataset(rows, labels, weights=weights)


def bench_ml(n_rows: int = 2000, repeats: int = 3) -> Dict[str, float]:
    """J48 train/predict rates plus the compiled-walk speedup."""
    from repro.ml.tree import J48Classifier

    dataset = _ml_dataset(n_rows)
    train_s = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        classifier = J48Classifier().fit(dataset)
        train_s = min(train_s, perf_counter() - start)
    rows = dataset.rows
    predict_s = float("inf")
    recursive_s = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        classifier.predict(rows)
        predict_s = min(predict_s, perf_counter() - start)
        start = perf_counter()
        classifier.predict_recursive(rows)
        recursive_s = min(recursive_s, perf_counter() - start)
    return {
        "rows": n_rows,
        "tree_nodes": classifier.n_nodes,
        "train_rows_per_sec": n_rows / train_s,
        "ml_predict_rows_per_sec": n_rows / predict_s,
        "recursive_rows_per_sec": n_rows / recursive_s,
        "ml_predict_speedup": predict_s and recursive_s / predict_s,
    }


# ---------------------------------------------------------------------------
# End-to-end rates.


def bench_macro(duration_s: float = 300.0, seed: int = 0) -> Dict[str, float]:
    """Simulated seconds per wall second on the macro workload."""
    from repro.bench.macro import run_macro
    from repro.workloads.faasload import TenantProfile

    start = perf_counter()
    run_macro("ofc", TenantProfile.NORMAL, duration_s=duration_s, seed=seed)
    wall_s = perf_counter() - start
    return {
        "sim_duration_s": duration_s,
        "wall_s": wall_s,
        "sim_s_per_wall_s": duration_s / wall_s,
    }


def bench_faulted_macro(
    total_sim_s: float = 300.0, seed: int = 0
) -> Dict[str, float]:
    """Simulated seconds per wall second on a chaos-faulted macro cell.

    Same multi-tenant workload the chaos grid runs (ofc backend, medium
    intensity: crashes + recovery + RSDS episodes + history recording),
    so the trajectory shows what fault dispatch and the consistency
    checker cost relative to the clean macro rate.

    ``total_sim_s`` is the cell's *total* simulated span (warmup + load
    + settle), sized to match the clean macro cell's duration so the
    clean/faulted rates divide into a meaningful overhead factor — the
    earlier shape (120 s clean vs 135 s faulted in quick mode) made the
    printed delta partly a duration artifact.

    The cell is deliberately *dense* (200 tenants at a 2 s mean
    interval saturates the 4-node deployment; a large share of
    invocations fail on capacity): a sparse cell's wall time is all
    pretraining startup, so the trajectory would track model-fit speed
    instead of what this metric exists to watch — dispatch, the
    sandbox/cache bookkeeping under churn, and the history recorder.
    """
    from repro.bench.grid import run_cell, SETTLE_SLACK_S, TenantCell

    warmup_s = 30.0
    load_s = total_sim_s - warmup_s - SETTLE_SLACK_S
    if load_s <= 0:
        raise ValueError(
            f"total_sim_s={total_sim_s} leaves no load window past "
            f"warmup ({warmup_s}) + settle ({SETTLE_SLACK_S})"
        )
    cell = TenantCell(
        intensity="medium",
        n_tenants=200,
        mean_interval_s=2.0,
        duration_s=load_s,
        seed=seed,
        warmup_s=warmup_s,
    )
    start = perf_counter()
    result = run_cell(cell)
    wall_s = perf_counter() - start
    # Lower bound on simulated time: warmup + load + settling window
    # (the cell may run slightly longer waiting out episode tails).
    sim_s = cell.warmup_s + load_s + SETTLE_SLACK_S
    return {
        "sim_duration_s": sim_s,
        "wall_s": wall_s,
        "sim_s_per_wall_s": sim_s / wall_s,
        "ops": result.ops,
        "violations": result.violations_total,
    }


def bench_sweep(
    workers: Optional[int] = None,
    seed: int = 0,
    macro_cell_s: float = 60.0,
) -> Dict:
    """Wall seconds for a small Figure 8 sweep, serial vs parallel,
    plus a short (pretraining-dominated) macro cell cold vs warm.

    With ``workers == 1`` there is no parallel run to time, so
    ``parallel_wall_s`` is ``None`` — the runner would execute the
    exact same serial pass, and recording the serial time twice made
    the entry look like a measured (and disappointing) fan-out.
    """
    from repro.bench import model_cache
    from repro.bench.fig8 import run_fig8
    from repro.bench.macro import run_macro
    from repro.bench.runner import default_workers
    from repro.sim.latency import KB
    from repro.workloads.faasload import TenantProfile

    sizes = (16 * KB, 1024 * KB)
    start = perf_counter()
    run_fig8(sizes=sizes, seed=seed, workers=1)
    serial_s = perf_counter() - start
    if workers is None:
        workers = default_workers()
    parallel_s = None
    if workers > 1:
        start = perf_counter()
        run_fig8(sizes=sizes, seed=seed, workers=workers)
        parallel_s = perf_counter() - start

    # Warm-model cache: one trainer-heavy macro cell (short duration,
    # so per-cell startup dominates), cold then warm.  The second run
    # hits the cache populated by the first and skips pretraining.
    model_cache.clear()
    start = perf_counter()
    cold = run_macro("ofc", TenantProfile.NORMAL, duration_s=macro_cell_s, seed=seed)
    cold_s = perf_counter() - start
    start = perf_counter()
    warm = run_macro("ofc", TenantProfile.NORMAL, duration_s=macro_cell_s, seed=seed)
    warm_s = perf_counter() - start
    cache_stats = model_cache.stats()
    model_cache.clear()
    assert warm.hit_ratio == cold.hit_ratio, "warm cell diverged from cold"
    return {
        "cells": len(sizes) * 4,
        "workers": workers,
        "serial_wall_s": serial_s,
        "parallel_wall_s": parallel_s,
        "warm_model_cell": {
            "macro_cell_s": macro_cell_s,
            "cold_wall_s": cold_s,
            "warm_wall_s": warm_s,
            "startup_speedup": cold_s / warm_s if warm_s > 0 else None,
            "cache_hits": cache_stats["hits"],
        },
    }


# ---------------------------------------------------------------------------
# Trajectory file.


def _git_commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_perf(
    quick: bool = False,
    workers: Optional[int] = None,
    label: Optional[str] = None,
) -> Dict:
    """Measure all layers and return one trajectory entry."""
    n = 50_000 if quick else 200_000
    kernel = bench_kernel(n=n, repeats=2 if quick else 3)
    ml = bench_ml(n_rows=800 if quick else 2000, repeats=2 if quick else 3)
    macro_sim_s = 120.0 if quick else 300.0
    macro = bench_macro(duration_s=macro_sim_s)
    # Matched total simulated span, so clean/faulted divide cleanly.
    macro_faulted = bench_faulted_macro(total_sim_s=macro_sim_s)
    sweep = bench_sweep(
        workers=workers, macro_cell_s=30.0 if quick else 60.0
    )
    entry = {
        "schema": SCHEMA_VERSION,
        "recorded_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "commit": _git_commit(),
        # A null label made quick CI rows indistinguishable; default it.
        "label": label if label is not None else ("quick" if quick else "full"),
        "quick": quick,
        "machine": {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        # Headline: sleep-chain turnover, the dominant pattern in the
        # real simulations since all model code sleeps via bare delays.
        "kernel_events_per_sec": kernel["sleep"],
        "kernel_patterns": kernel,
        "ml": ml,
        "macro": macro,
        "macro_faulted": macro_faulted,
        "sweep": sweep,
    }
    return entry


#: Quick entries kept after compaction.  CI appends one quick entry per
#: run, so without a cap the trajectory file grows unboundedly; full
#: entries are deliberate measurements and are kept forever.
QUICK_KEEP = 20


def _compact(entries: List[Dict]) -> List[Dict]:
    """Drop all but the newest ``QUICK_KEEP`` quick entries (in place order)."""
    quick_positions = [i for i, e in enumerate(entries) if e.get("quick")]
    excess = len(quick_positions) - QUICK_KEEP
    if excess <= 0:
        return entries
    drop = set(quick_positions[:excess])
    return [e for i, e in enumerate(entries) if i not in drop]


def find_comparable(entries: List[Dict], entry: Dict) -> Optional[Dict]:
    """The most recent prior entry measured like ``entry``.

    Comparable = same machine fingerprint and same quick flag; wall-clock
    rates across different machines or measurement depths are noise, not
    a trend.
    """
    machine = entry.get("machine")
    quick = bool(entry.get("quick"))
    for prior in reversed(entries):
        if prior is entry:
            continue
        if prior.get("machine") == machine and bool(prior.get("quick")) == quick:
            return prior
    return None


def format_delta(entry: Dict, previous: Optional[Dict]) -> str:
    """One-line trend vs the previous comparable entry (for CI logs)."""
    if previous is None:
        return "perf delta: no comparable prior entry (machine/quick flag)"
    parts = []
    for key, label in (
        ("kernel_events_per_sec", "kernel sleep"),
        (("macro", "sim_s_per_wall_s"), "macro sim-s/wall-s"),
        (("macro_faulted", "sim_s_per_wall_s"), "faulted macro sim-s/wall-s"),
    ):
        if isinstance(key, tuple):
            new = entry.get(key[0], {}).get(key[1])
            old = previous.get(key[0], {}).get(key[1])
        else:
            new = entry.get(key)
            old = previous.get(key)
        if not new or not old:
            continue
        pct = (new - old) / old * 100.0
        parts.append(f"{label} {new:,.0f} ({pct:+.1f}%)")
    stamp = previous.get("recorded_at", "?")
    label = previous.get("label") or ("quick" if previous.get("quick") else "full")
    return (
        f"perf delta vs {label} @ {stamp}: " + ", ".join(parts)
        if parts
        else "perf delta: previous entry has no comparable metrics"
    )


def record(entry: Dict, path: str = DEFAULT_PATH) -> Dict:
    """Append ``entry`` to the trajectory file (created if missing).

    Quick entries are compacted to the newest :data:`QUICK_KEEP`; full
    entries are kept forever.
    """
    doc = {"schema": SCHEMA_VERSION, "entries": []}
    if os.path.exists(path):
        with open(path) as fh:
            loaded = json.load(fh)
        if loaded.get("schema") == SCHEMA_VERSION:
            doc = loaded
        else:
            # Keep unknown-schema history around instead of clobbering.
            doc["entries"] = list(loaded.get("entries", []))
    doc["entries"].append(entry)
    doc["entries"] = _compact(doc["entries"])
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return doc


def format_entry(entry: Dict) -> str:
    """Human-readable summary of one trajectory entry."""
    from repro.bench.reporting import format_table

    rows = [
        ("kernel events/s (sleep, headline)",
         f"{entry['kernel_events_per_sec']:,.0f}"),
    ]
    for name, value in entry["kernel_patterns"].items():
        if name != "sleep":
            rows.append((f"kernel events/s ({name})", f"{value:,.0f}"))
    ml = entry.get("ml")
    if ml:
        rows.append(
            ("ml_train rows/s", f"{ml['train_rows_per_sec']:,.0f}")
        )
        rows.append(
            ("ml_predict rows/s (compiled)",
             f"{ml['ml_predict_rows_per_sec']:,.0f}")
        )
        rows.append(
            ("ml_predict speedup vs recursive",
             f"{ml['ml_predict_speedup']:.2f}x")
        )
    macro = entry["macro"]
    rows.append(
        ("macro sim-s per wall-s", f"{macro['sim_s_per_wall_s']:,.1f}")
    )
    faulted = entry.get("macro_faulted")
    if faulted:
        rows.append(
            ("faulted macro sim-s per wall-s",
             f"{faulted['sim_s_per_wall_s']:,.1f} "
             f"({faulted['ops']} ops, {faulted['violations']} violations)"),
        )
        # Matched simulated spans (run_perf sizes the faulted cell to
        # the clean macro's duration), so this ratio is pure overhead.
        if faulted.get("sim_s_per_wall_s") and faulted.get(
            "sim_duration_s"
        ) == macro.get("sim_duration_s"):
            rows.append(
                ("faulted-cell rate vs clean macro",
                 f"{macro['wall_s'] / faulted['wall_s']:.2f}x"
                 if faulted.get("wall_s")
                 else "n/a"),
            )
    sweep = entry["sweep"]
    rows.append(
        (f"fig8 sweep serial ({sweep['cells']} cells)",
         f"{sweep['serial_wall_s']:.2f} s"),
    )
    if sweep.get("parallel_wall_s") is not None:
        rows.append(
            (f"fig8 sweep x{sweep['workers']} workers",
             f"{sweep['parallel_wall_s']:.2f} s"),
        )
    warm = sweep.get("warm_model_cell")
    if warm:
        rows.append(
            (f"macro cell ({warm['macro_cell_s']:.0f} s sim) cold",
             f"{warm['cold_wall_s']:.2f} s"),
        )
        rows.append(
            ("macro cell warm-model cache",
             f"{warm['warm_wall_s']:.2f} s "
             f"({warm['startup_speedup']:.2f}x)"),
        )
    return format_table(
        ["metric", "value"],
        rows,
        title=f"Simulator performance ({entry['recorded_at']})",
    )
