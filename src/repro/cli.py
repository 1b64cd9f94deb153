"""Command-line runner for the paper's experiments.

Usage::

    python -m repro.cli list
    python -m repro.cli fig3 table1 maturation
    python -m repro.cli all
    python -m repro.cli report --quick
    python -m repro.cli fig9 --trace results/fig9-trace.json
    python -m repro.cli fig8 --workers 8
    python -m repro.cli perf --quick
    python -m repro.cli tenants --quick --workers 2
    python -m repro.cli cachewars --quick
    python -m repro.cli faults
    python -m repro.cli chaos --quick
    python -m repro.cli run --faults examples/faults/crash_restart.json

Each experiment prints the same rows the corresponding paper artifact
reports. Heavy experiments accept ``--quick`` to shrink sample counts.
Sweep experiments (fig7, fig8, fig9, fig10) fan independent cells
across processes; ``--workers N`` caps the fan-out (``--workers 1``
forces the serial path, the default is one worker per core).

Every command is one entry of :data:`COMMANDS` taking the parsed
arguments; ``list`` prints the registry and ``all`` runs :data:`ALL`
(the paper's artifacts plus ``faults``).

``report`` runs the macro workload and dumps the unified observability
JSON (metrics + span summary) to ``--out``.  ``perf`` runs the
repository benchmark (``perf/run.py``; needs a source checkout) and
appends what it measured to the ``--bench-out`` trajectory file; with
``--quick`` it runs the tiny smoke cells and appends nothing.
``tenants``, ``cachewars``, ``chaos`` and ``faults`` are the four
definitions of the one grid experiment (:mod:`repro.bench.grid`): a
seeded multi-tenant population (Zipf app popularity, diurnal/bursty
arrivals) streamed through one deployment per cell, swept over tenant
count × skew × cache quota policy (fairness), over every registered
cache architecture (OFC harvested, Faa$T-style cachelets,
InfiniCache-style erasure-coded lambdas: hit ratio / latency / cost),
over backend × fault intensity with a history recorder auditing
consistency invariants (acked-write durability, stale reads,
read-your-writes, version order), or over no fault vs a mid-run node
crash and restart on identical arrivals (availability).  Each writes
its grid — one shared row per cell — to ``--grid-out`` (default
``results/<name>_grid.json``); failing cells are ddmin-shrunk and the
minimal schedule exported as a runnable reproducer under
``examples/faults/``.
``run`` runs the one cell a fault file documents (``--faults PATH``):
a reproducer's ``chaos`` block is the cell and its events the schedule;
a plain schedule, or none, runs on the ``faults`` deployment for
``--duration S`` (``--quick``: at most 120).  It prints the cell's
availability timeline, its failures by cause and its violations by
invariant.
``--trace PATH`` enables span tracing for any experiment and writes
the trace summary to PATH.  A failing experiment prints its traceback
to stderr and exits 1; ``run`` and the grids also exit 1 (table still
printed) when the consistency audit finds violations, and ``perf`` (one
line, no table) when the benchmark cannot be run or fails its checks.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from functools import partial
from typing import Callable, Dict

from repro.bench.reporting import format_table


class ExperimentFailed(Exception):
    """An experiment completed but its consistency gate failed.

    Carries the rendered table so the output still prints before the
    process exits nonzero — CI logs show *what* failed, not just that
    something did.
    """

    def __init__(self, output: str, reason: str):
        super().__init__(reason)
        self.output = output
        self.reason = reason


def _fig2(args) -> str:
    from repro.bench.fig2 import run_fig2

    result = run_fig2(n=150 if args.quick else 400)
    return format_table(
        ["metric", "value"],
        [
            ("spread at fixed byte size (MB)", result.spread_at_fixed_size_mb),
            ("spread at fixed sigma (MB)", result.spread_at_fixed_sigma_mb),
        ],
        title="Figure 2 — wand_blur memory variability",
    )


def _fig3(args) -> str:
    from repro.bench.fig3 import run_fig3_pipeline, run_fig3_single

    rows = run_fig3_single() + run_fig3_pipeline()
    return format_table(
        ["workload", "size", "backend", "E (s)", "T (s)", "L (s)", "E+L %"],
        [
            (r.workload, r.input_size, r.backend, r.extract_s, r.transform_s,
             r.load_s, 100 * r.el_fraction)
            for r in rows
        ],
        title="Figure 3 — motivation: RSDS vs IMOC",
    )


def _table1(args) -> str:
    from repro.bench.table1 import run_table1

    functions = (
        ["wand_blur", "wand_sepia", "sharp_resize", "video_transcode"]
        if args.quick
        else None
    )
    rows = run_table1(
        n_samples=200 if args.quick else 400,
        folds=3 if args.quick else 5,
        functions=functions,
    )
    return format_table(
        ["interval", "algorithm", "exact %", "exact-or-over %"],
        [
            (f"{r.interval_mb:.0f} MB", r.algorithm, r.exact_pct,
             r.exact_or_over_pct)
            for r in rows
        ],
        title="Table 1 — ML accuracy",
    )


def _benefit(args) -> str:
    from repro.bench.table1 import run_benefit_model_eval

    result = run_benefit_model_eval(n_samples=200 if args.quick else 400)
    return format_table(
        ["metric", "%"],
        [(k, v) for k, v in result.items()],
        title="Cache-benefit model (§7.1.1)",
    )


def _fig5(args) -> str:
    from repro.bench.fig5 import run_fig5

    result = run_fig5(n_samples=200 if args.quick else 400)
    return format_table(
        ["metric", "value"],
        [
            ("EO fraction", result.eo_fraction),
            ("overpredictions within 3 intervals", result.over_within_3_intervals),
            ("mean waste (MB)", result.mean_waste_mb),
        ],
        title="Figure 5 — error distribution",
    )


def _fig6(args) -> str:
    from repro.bench.fig6 import run_fig6

    functions = ["wand_sepia", "sharp_resize"] if args.quick else None
    rows = run_fig6(n_samples=150 if args.quick else 300, functions=functions)
    return format_table(
        ["algorithm", "interval", "median (us)", "p99 (us)"],
        [
            (r.algorithm, f"{r.interval_mb:.0f} MB", r.median_us, r.p99_us)
            for r in rows
        ],
        title="Figure 6 — prediction speed",
    )


def _maturation(args) -> str:
    from repro.bench.maturation import run_maturation

    result = run_maturation(max_invocations=300 if args.quick else 500)
    rows = [
        (name, count if count is not None else "(not matured)")
        for name, count in result.per_function.items()
    ]
    rows.append(("median", result.median))
    rows.append(("p75", result.p75))
    rows.append(("p95", result.p95))
    return format_table(
        ["function", "invocations"], rows, title="§7.1.3 — maturation"
    )


def _fig7(args) -> str:
    from repro.bench.fig7 import run_fig7_single
    from repro.sim.latency import KB
    from repro.workloads.functions import FIGURE7_FUNCTIONS

    functions = FIGURE7_FUNCTIONS[:2] if args.quick else FIGURE7_FUNCTIONS
    rows = run_fig7_single(functions, sizes=(16 * KB, 128 * KB), workers=args.workers)
    return format_table(
        ["workload", "size", "config", "total (ms)"],
        [(r.workload, r.input_size, r.config, r.total_s * 1e3) for r in rows],
        title="Figure 7 — single-stage (subset)",
    )


def _fig8(args) -> str:
    from repro.bench.fig8 import run_fig8
    from repro.sim.latency import KB

    full = (1 * KB, 16 * KB, 1024 * KB, 3072 * KB)
    sizes = (16 * KB, 1024 * KB) if args.quick else full
    rows = run_fig8(sizes=sizes, workers=args.workers)
    return format_table(
        ["scenario", "size (kB)", "scaling (ms)", "exec (ms)"],
        [
            (r.scenario, r.input_size // 1024, r.scaling_time_s * 1e3,
             r.exec_time_s * 1e3)
            for r in rows
        ],
        title="Figure 8 — scaling impact",
    )


def _fig9(args) -> str:
    from repro.bench.macro import MACRO_WORKLOADS, run_macro_comparison
    from repro.workloads.faasload import TenantProfile

    ofc, swift, improvements = run_macro_comparison(
        TenantProfile.NORMAL,
        duration_s=300.0 if args.quick else 1800.0,
        workers=args.workers,
    )
    return format_table(
        ["workload", "OWK-Swift (s)", "OFC (s)", "improvement %"],
        [
            (w, swift.total_exec_s.get(w, 0.0), ofc.total_exec_s.get(w, 0.0),
             improvements.get(w, 0.0))
            for w in MACRO_WORKLOADS
        ],
        title=(
            "Figure 9 — macro (normal profile); "
            f"hit ratio {ofc.hit_ratio:.3f}, failed {ofc.failed_invocations}"
        ),
    )


def _table2(args) -> str:
    from repro.bench.macro import run_macro
    from repro.workloads.faasload import TenantProfile

    result = run_macro(
        "ofc", TenantProfile.NORMAL, duration_s=300.0 if args.quick else 1800.0
    )
    return format_table(
        ["metric", "value"],
        list(result.table2.items()),
        title="Table 2 — OFC internal metrics",
    )


def _fig10(args) -> str:
    from repro.bench.fig10 import run_fig10

    series = run_fig10(
        duration_s=300.0 if args.quick else 900.0, workers=args.workers
    )
    rows = []
    for s in series:
        for minute, gb in s.per_minute():
            rows.append((s.profile, minute, gb))
    return format_table(
        ["profile", "minute", "cache size (GB)"],
        rows,
        title="Figure 10 — OFC cache size over time",
    )


def _run_schedule(args) -> str:
    """One cell of :mod:`repro.bench.grid`: the one ``--faults`` documents."""
    from repro.bench.grid import load_cell, run_cell

    duration_s = min(args.duration, 120.0) if args.quick else args.duration
    row = run_cell(load_cell(args.faults, duration_s))
    rows = [
        (
            f"{p['t']:.0f}",
            "n/a" if p["hit_ratio"] is None else f"{p['hit_ratio']:.3f}",
            p["live_servers"],
            p["under_replicated"],
        )
        for p in row.timeline
    ]
    rows.append(("--", "--", "--", "--"))
    summary = [
        ("completed", row.completed),
        ("failed", row.failed),
        *((f"  {cause}", n) for cause, n in sorted(row.failures.items())),
        ("lost objects", row.lost_objects),
        ("recovered", row.injector["recovered_objects"]),
        ("repaired keys", row.injector["repaired_keys"]),
        ("violations", row.violations_total),
        *((f"  {name}", n) for name, n in sorted(row.violations.items())),
    ]
    rows.extend((label, value, "", "") for label, value in summary)
    table = format_table(
        ["t (s)", "hit ratio", "live nodes", "under-replicated"],
        rows,
        title=f"Fault schedule run — {args.faults or 'no-faults'}",
    )
    if row.violations_total:
        raise ExperimentFailed(
            table,
            f"{row.violations_total} invariant violations: {row.violations}",
        )
    return table


def _grid(name: str, args) -> str:
    """Run grid definition ``name`` of :mod:`repro.bench.grid`."""
    from repro.bench.grid import format_results, GRIDS, run_grid_experiment

    grid, out = GRIDS[name], args.grid_out or f"results/{name}_grid.json"
    rows = run_grid_experiment(
        grid, quick=args.quick, workers=args.workers, grid_out=out
    )
    table = format_results(grid, rows) + f"\n[grid written to {out}]"
    total = sum(r.violations_total for r in rows)
    if total:
        failing = [r.cell_id for r in rows if r.violations_total]
        raise ExperimentFailed(
            table,
            f"{total} invariant violations in cells {failing}; "
            "minimized reproducers under examples/faults/",
        )
    return table


def _report(args) -> str:
    from repro.bench.report import run_report

    return run_report(quick=args.quick, out=args.out)


def _perf(args) -> str:
    from repro.bench.trajectory import PerfFailed, run_perf

    try:
        return run_perf(quick=args.quick, label=args.label, path=args.bench_out)
    except PerfFailed as failure:
        raise ExperimentFailed("", str(failure)) from None


#: The one registry: command name -> ``fn(parsed args) -> printed text``.
COMMANDS: Dict[str, Callable[[argparse.Namespace], str]] = {
    "fig2": _fig2,
    "fig3": _fig3,
    "table1": _table1,
    "benefit": _benefit,
    "fig5": _fig5,
    "fig6": _fig6,
    "maturation": _maturation,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "table2": _table2,
    "fig10": _fig10,
    "faults": partial(_grid, "faults"),
}
#: What ``all`` runs: the paper's artifacts and the availability
#: grid, i.e. everything registered above this line.
ALL = tuple(COMMANDS)
COMMANDS.update(
    report=_report,
    perf=_perf,
    **{name: partial(_grid, name) for name in ("tenants", "cachewars", "chaos")},
    run=_run_schedule,
)


def _export_trace(path: str) -> None:
    from repro.obs import active_tracers, export_json

    export_json(path, tracers=active_tracers(), meta={"source": "repro.cli"})
    print(f"[trace written to {path}]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Regenerate the OFC paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help="command names (see 'list'), or 'all' for the paper's set",
    )
    parser.add_argument(
        "--quick", action="store_true", help="smaller sample counts"
    )
    parser.add_argument(
        "--workers",
        type=int,
        metavar="N",
        default=None,
        help="process fan-out for sweep experiments (1 = serial; "
        "default: one worker per core)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="enable span tracing and write the trace summary JSON here",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default="results/report.json",
        help="output path for the 'report' experiment's metrics JSON",
    )
    parser.add_argument(
        "--grid-out",
        metavar="PATH",
        default=None,
        help="output path for a grid experiment's JSON document "
        "(default: results/<name>_grid.json)",
    )
    parser.add_argument(
        "--bench-out",
        metavar="PATH",
        default="BENCH_perf.json",
        help="trajectory file the 'perf' command appends its entry to",
    )
    parser.add_argument(
        "--label",
        metavar="TEXT",
        default=None,
        help="label recorded with the 'perf' entry: the state it stands for",
    )
    parser.add_argument(
        "--faults",
        metavar="PATH",
        default=None,
        help="JSON fault schedule or chaos reproducer for the 'run' command",
    )
    parser.add_argument(
        "--duration",
        type=float,
        metavar="S",
        default=240.0,
        help="simulated load duration for the 'run' command (seconds); "
        "a reproducer carries its own",
    )
    args = parser.parse_args(argv)

    if args.experiments == ["list"]:
        print("\n".join(COMMANDS))
        return 0
    names = list(ALL) if args.experiments == ["all"] else args.experiments
    tracing = args.trace is not None
    if tracing:
        from repro.obs import enable_tracing, reset_tracing

        reset_tracing()
        enable_tracing()
    try:
        for name in names:
            command = COMMANDS.get(name)
            if command is None:
                print(f"unknown experiment: {name}", file=sys.stderr)
                return 2
            try:
                print(command(args))
            except ExperimentFailed as failure:
                if failure.output:
                    print(failure.output)
                print(
                    f"experiment failed: {name}: {failure.reason}",
                    file=sys.stderr,
                )
                return 1
            except Exception:
                # Surface the failure as an unambiguous exit status so
                # CI smoke steps can gate on this command.
                traceback.print_exc()
                print(f"experiment failed: {name}", file=sys.stderr)
                return 1
            print()
        if tracing:
            try:
                _export_trace(args.trace)
            except OSError:
                traceback.print_exc()
                print(f"could not write trace: {args.trace}", file=sys.stderr)
                return 1
    finally:
        if tracing:
            from repro.obs import reset_tracing

            reset_tracing()
    return 0


if __name__ == "__main__":
    sys.exit(main())
