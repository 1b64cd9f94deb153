"""``repro report``: run a macro workload, dump the observability doc.

Runs the Figure 9/Table 2 macro workload on the OFC deployment with
tracing on, then writes the repro-obs document (the deployment's
collectors + the span summary of this run) to ``results/report.json``
(or the path given with ``--out``).  The document contains the cache
hit/miss counters, the Table 2 counters, every component's ad-hoc stats
and the per-invocation span aggregates — everything a programmatic
consumer needs without touching internal objects.
"""

from __future__ import annotations

from repro.bench.reporting import format_table
from repro.obs import trace as obs_trace
from repro.obs.export import export_json
from repro.workloads.faasload import TenantProfile

DEFAULT_REPORT_PATH = "results/report.json"


def run_report(quick: bool = True, out: str = DEFAULT_REPORT_PATH) -> str:
    """Run the normal-profile macro workload, export the report; returns
    a summary table.

    Uses the tracing state it finds: under ``--trace`` the macro run's
    spans also reach the CLI's export, and tracing stays on for the
    commands after this one; otherwise tracing is on for this run only.
    """
    from repro.bench.macro import run_macro

    profile = TenantProfile.NORMAL
    duration_s = 300.0 if quick else 1800.0
    was_tracing = obs_trace.tracing_enabled()
    obs_trace.enable_tracing()
    first = len(obs_trace.active_tracers())
    try:
        result = run_macro("ofc", profile, duration_s=duration_s)
        document = export_json(
            out,
            meta={
                "experiment": "macro",
                "system": "ofc",
                "profile": profile.value,
                "duration_s": duration_s,
            },
            collected=result.obs_snapshot["collected"],
            tracers=obs_trace.active_tracers()[first:],
        )
    finally:
        if not was_tracing:
            obs_trace.reset_tracing()

    spans = document["spans"]
    invoke_spans = spans["summary"].get("faas.invoke", {})
    rows = [
        ("report file", out),
        ("simulated duration (s)", duration_s),
        ("cache hit ratio", result.hit_ratio),
        ("failed invocations", result.failed_invocations),
        ("invocation spans", invoke_spans.get("count", 0)),
        ("total finished spans", spans["finished"]),
        ("span names", len(spans["summary"])),
    ]
    return format_table(
        ["metric", "value"], rows, title="Observability report (macro, OFC)"
    )
