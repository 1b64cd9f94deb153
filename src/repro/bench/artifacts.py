"""The paper's artifacts, each defined once.

:data:`ARTIFACTS` is the paper-artifact counterpart of
:data:`repro.bench.grid.GRIDS`: artifact name -> its tables.  A
:class:`Table` holds the driver that computes it, the sizes it runs at
and how it renders; ``results/<stem>.txt`` is its rendering at ``full``
size.  ``repro <name>`` prints every table of the artifact (under
``--quick``, those with ``quick`` sizes, at those sizes) and each
``benchmarks/`` test draws one table at full size, saves it and asserts
the shape of its data — so the command line prints what ``results/``
holds.

Paper-scale runs are one driver argument away: ``run_macro(...,
duration_s=1800)`` for §7.2.2's 30-minute runs, ``run_table1(...,
functions=None)`` for all 19 functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Optional, Tuple

from repro.bench.etl import run_fig3, run_fig7
from repro.bench.fig2 import run_fig2
from repro.bench.fig5 import run_fig5
from repro.bench.fig6 import run_fig6
from repro.bench.fig8 import migration_time_sweep, PAPER_MIGRATION_MS, run_fig8
from repro.bench.macro import (
    MACRO_WORKLOADS,
    per_minute,
    run_macro,
    run_macro_comparison,
)
from repro.bench.maturation import run_maturation
from repro.bench.reporting import format_table
from repro.bench.table1 import run_benefit_model_eval, run_table1
from repro.sim.latency import KB, MB
from repro.workloads.faasload import TenantProfile
from repro.workloads.functions import FIGURE7_FUNCTIONS

Sizes = Dict[str, Any]


@dataclass(frozen=True)
class Table:
    """One table of a paper artifact."""

    stem: str
    #: The driver, called with one of the sizes as keywords.
    run: Callable[..., Any]
    #: The driver's result -> the printed table.
    render: Callable[[Any], str]
    #: The sizes ``results/<stem>.txt`` was generated at.
    full: Sizes
    #: The ``--quick`` sizes; None: ``--quick`` leaves the table out.
    quick: Optional[Sizes] = None
    #: The driver fans its cells across ``workers`` processes.
    sweep: bool = False

    def draw(
        self, quick: bool = False, workers: Optional[int] = None
    ) -> Tuple[Any, str]:
        """Run the driver at full (or quick) size: (its result, the table)."""
        sizes = dict(self.quick if quick else self.full)
        if self.sweep:
            sizes["workers"] = workers
        result = self.run(**sizes)
        return result, self.render(result)


# -- renderers ---------------------------------------------------------------


def _fig2(result) -> str:
    memories = [m for _s, m in result.by_size]
    return format_table(["metric", "value"], [
        ("samples", len(result.by_size)),
        ("memory min (MB)", min(memories)),
        ("memory max (MB)", max(memories)),
        ("spread at fixed byte size (MB)", result.spread_at_fixed_size_mb),
        ("spread at fixed sigma (MB)", result.spread_at_fixed_sigma_mb),
    ], title="Figure 2 — wand_blur memory usage variability")


def _fig3(title: str, rows) -> str:
    return format_table(
        ["workload", "size", "backend", "E (s)", "T (s)", "L (s)", "E+L %"],
        [(r.workload, r.input_size, r.config, r.extract_s, r.transform_s,
          r.load_s, 100 * r.el_fraction) for r in rows], title=title)


def _table1(rows) -> str:
    return format_table(
        ["interval", "algorithm", "exact %", "exact-or-over %"],
        [(f"{r.interval_mb:.0f} MB", r.algorithm, r.exact_pct, r.exact_or_over_pct)
         for r in rows], title="Table 1 — memory-interval prediction accuracy")


def _benefit(result) -> str:
    return format_table(["metric", "measured %", "paper %"], [
        ("precision", result["precision_pct"], 98.8),
        ("recall", result["recall_pct"], 98.6),
        ("F-measure", result["f_measure_pct"], 98.7),
    ], title="Cache-benefit prediction (J48, 5-fold CV)")


def _fig5(result) -> str:
    return format_table(
        ["interval offset", "count"],
        [(o, n) for o, n in result.offset_histogram.items() if abs(o) <= 8],
        title="Figure 5 — J48 error distribution (16 MB intervals)\n"
        f"EO fraction: {result.eo_fraction:.3f}   overpredictions within 3 "
        f"intervals: {result.over_within_3_intervals:.3f}   mean waste: "
        f"{result.mean_waste_mb:.1f} MB (paper: 26.8 MB)")


def _fig6(results) -> str:
    return format_table(
        ["algorithm", "interval", "median (us)", "p99 (us)", "samples"],
        [(r.algorithm, f"{r.interval_mb:.0f} MB", r.median_us, r.p99_us, r.samples)
         for r in results], title="Figure 6 — prediction time (wall clock)")


def _maturation(result) -> str:
    return format_table(
        ["function", "invocations to maturity"],
        [(name, f">{result.max_invocations}" if count is None else count)
         for name, count in result.per_function.items()],
        title=f"Maturation quickness (§7.1.3)\nmedian={result.median:.0f} "
        f"(paper 100)  p75={result.p75:.0f} (paper <250)  "
        f"p95={result.p95:.0f} (paper <450)  matured at first check: "
        f"{result.matured_at_first_check}/{len(result.per_function)} (paper 11/19)")


def _fig7(title: str, rows) -> str:
    return format_table(
        ["workload", "size", "config", "E (s)", "T (s)", "L (s)", "total (s)"],
        [(r.workload, r.input_size, r.config, r.extract_s, r.transform_s,
          r.load_s, r.total_s) for r in rows], title=title)


def _fig8(rows) -> str:
    return format_table(
        ["scenario", "size (kB)", "scaling (ms)", "cgroup (ms)", "exec (ms)"],
        [(r.scenario, r.input_size // 1024, r.scaling_time_s * 1e3,
          r.cgroup_sys_time_s * 1e3, r.exec_time_s * 1e3) for r in rows],
        title="Figure 8 — cache-scaling impact on wand_sepia")


def _ladder(ladder) -> str:
    return format_table(
        ["migrated (MB)", "time (ms)", "paper (ms)"],
        [(mb, s * 1e3, paper) for (mb, s), paper in zip(ladder, PAPER_MIGRATION_MS)],
        title="§7.2.1 — master hand-off migration times")


def _fig9(comparison, contention: bool = False) -> str:
    """Figure 9; with ``contention``, §7.2.2's 24-tenant run."""
    ofc, swift, improvements = comparison
    rows = [
        (w, swift.total_exec_s.get(w, 0.0), ofc.total_exec_s.get(w, 0.0),
         improvements.get(w, 0.0), ofc.completed.get(w, 0))
        for w in MACRO_WORKLOADS
    ]
    headers = ["workload", "OWK-Swift (s)", "OFC (s)", "improvement %", "n"]
    if contention:
        headers, rows = headers[:-1], [row[:-1] for row in rows]
    title = "§7.2.2 — 24 tenants" if contention else (
        f"Figure 9 — total execution times, profile={ofc.profile}")
    return format_table(headers, rows, title=f"{title}\nhit ratio: "
                        f"{ofc.hit_ratio:.3f}   failed: {ofc.failed_invocations}")


def _table2(result) -> str:
    return format_table(
        ["metric", "value"], list(result.table2.items()),
        title=f"Table 2 — OFC internal metrics, profile={result.profile}")


def _fig10(result) -> str:
    return format_table(
        ["minute", "cache size (GB)"], per_minute(result.cache_series),
        title=f"Figure 10 — OFC cache size over time ({result.profile} profile)")


# -- the registry ------------------------------------------------------------

#: Simulated seconds of a §7.2.2 run in ``results/`` and under
#: ``--quick`` (the paper's runs last 1800).
MACRO_S, QUICK_MACRO_S = 900.0, 300.0
_PROFILES = (TenantProfile.NORMAL, TenantProfile.NAIVE, TenantProfile.ADVANCED)


def _macro(profile: TenantProfile) -> Dict[str, Optional[Sizes]]:
    """One profile's §7.2.2 run; ``--quick`` runs the normal one only."""
    normal = profile is TenantProfile.NORMAL
    return {"full": {"profile": profile, "duration_s": MACRO_S},
            "quick": {"profile": profile, "duration_s": QUICK_MACRO_S}
            if normal else None}


_FIG3A = {"workload": "sharp_resize",
          "sizes": (1 * KB, 16 * KB, 32 * KB, 64 * KB, 128 * KB)}
_FIG3B = {"workload": "map_reduce", "sizes": (5 * MB, 10 * MB, 30 * MB)}
_FIG7_PIPELINES = {"map_reduce": (5 * MB, 30 * MB), "THIS": (25 * MB, 125 * MB),
                   "IMAD": (1 * MB, 4 * MB), "image_processing": (64 * KB, 1 * MB)}
_OFC_RUN = partial(run_macro, "ofc")
#: Table 1's and Figure 6's functions (``functions=None``: all 19).
_TABLE1_FUNCTIONS = ["wand_blur", "wand_sepia", "wand_edge", "sharp_resize",
                     "audio_compress", "speech_recognize", "video_transcode",
                     "text_summarize"]
_FIG6_FUNCTIONS = ["wand_blur", "wand_sepia", "sharp_resize", "speech_recognize",
                   "video_transcode", "text_summarize"]

#: Artifact name -> its tables, in the paper's order.
ARTIFACTS: Dict[str, Tuple[Table, ...]] = {
    "fig2": (
        Table("fig2_memory_variability", run_fig2, _fig2, {"n": 300}, {"n": 150}),
    ),
    "fig3": (
        Table("fig3a_motivation_single", run_fig3,
              partial(_fig3, "Figure 3a — sharp_resize, S3 vs Redis"),
              _FIG3A, _FIG3A),
        Table("fig3b_motivation_pipeline", run_fig3,
              partial(_fig3, "Figure 3b — MapReduce word count, S3 vs Redis"),
              _FIG3B, _FIG3B),
    ),
    "table1": (
        Table("table1_ml_accuracy", run_table1, _table1,
              {"n_samples": 400, "folds": 3, "functions": _TABLE1_FUNCTIONS},
              {"n_samples": 200, "folds": 3, "functions": [
                  "wand_blur", "wand_sepia", "sharp_resize", "video_transcode"]}),
    ),
    "benefit": (
        Table("cache_benefit_model", run_benefit_model_eval, _benefit,
              {"n_samples": 400}, {"n_samples": 200}),
    ),
    "fig5": (
        Table("fig5_error_distribution", run_fig5, _fig5,
              {"n_samples": 300}, {"n_samples": 200}),
    ),
    "fig6": (
        Table("fig6_prediction_speed", run_fig6, _fig6,
              {"n_samples": 250, "functions": _FIG6_FUNCTIONS},
              {"n_samples": 150, "functions": ["wand_sepia", "sharp_resize"]}),
    ),
    "maturation": (
        Table("maturation_quickness", run_maturation, _maturation,
              {"max_invocations": 500}, {"max_invocations": 300}),
    ),
    "fig7": (
        Table("fig7_single_stage", run_fig7,
              partial(_fig7, "Figure 7 — single-stage functions"),
              {"workloads": FIGURE7_FUNCTIONS,
               "sizes": (1 * KB, 16 * KB, 64 * KB, 128 * KB)},
              {"workloads": FIGURE7_FUNCTIONS[:2], "sizes": (16 * KB, 128 * KB)},
              sweep=True),
        *(Table(f"fig7_pipeline_{app}", run_fig7,
                partial(_fig7, f"Figure 7 — {app}"),
                {"workloads": [app], "sizes": sizes}, sweep=True)
          for app, sizes in _FIG7_PIPELINES.items()),
    ),
    "fig8": (
        Table("fig8_scaling_impact", run_fig8, _fig8,
              {"sizes": (1 * KB, 16 * KB, 1024 * KB, 3072 * KB)},
              {"sizes": (16 * KB, 1024 * KB)}, sweep=True),
        Table("fig8_migration_ladder", migration_time_sweep, _ladder, {}, {}),
    ),
    "fig9": (
        *(Table(f"fig9_macro_{p.value}", run_macro_comparison, _fig9,
                sweep=True, **_macro(p)) for p in _PROFILES),
        Table("fig9_macro_24tenants", run_macro_comparison,
              partial(_fig9, contention=True),
              {"profile": TenantProfile.NORMAL, "duration_s": 600.0,
               "tenants_per_workload": 3}, sweep=True),
    ),
    "table2": tuple(
        Table(f"table2_{p.value}", _OFC_RUN, _table2, **_macro(p))
        for p in _PROFILES
    ),
    "fig10": (
        Table("fig10_cache_size", _OFC_RUN, _fig10, **_macro(TenantProfile.NORMAL)),
    ),
}

#: Every table by its ``results/`` stem.
TABLES: Dict[str, Table] = {
    table.stem: table for tables in ARTIFACTS.values() for table in tables
}


def render_artifact(
    name: str, quick: bool = False, workers: Optional[int] = None
) -> str:
    """What ``repro <name>`` prints: its tables, a blank line apart."""
    return "\n\n".join(
        table.draw(quick, workers)[1]
        for table in ARTIFACTS[name]
        if not quick or table.quick is not None
    )
