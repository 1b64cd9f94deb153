"""The one grid experiment: ``tenants``, ``cachewars``, ``chaos`` and
``faults`` as four definitions over one cell runner and one row type,
and ``repro run`` as one cell of it."""

import json
from dataclasses import asdict, replace
from functools import lru_cache
from pathlib import Path

import pytest

import repro.bench.grid as grid
import repro.cli as cli
from repro.bench.grid import (
    BACKEND_NAMES,
    export_grid,
    export_reproducer,
    format_results,
    GridRow,
    GRIDS,
    load_cell,
    POLICIES,
    run_cell,
    shrink_failing_cell,
    TenantCell,
    TENANTS_CACHE_CAP_MB,
    TENANTS_NODE_MB,
)
from repro.faults import FaultSchedule

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "faults"


def _tenants_cell(policy="none"):
    return TenantCell(
        n_tenants=40,
        quota_policy=policy,
        duration_s=120.0,
        mean_interval_s=20.0,
        seed=3,
        warmup_s=60.0,
        node_mb=TENANTS_NODE_MB,
        cache_cap_mb=TENANTS_CACHE_CAP_MB,
    )


def _cachewars_cell(backend="ofc"):
    return TenantCell(
        backend=backend,
        n_tenants=30,
        duration_s=90.0,
        mean_interval_s=20.0,
        seed=3,
        warmup_s=45.0,
    )


def _chaos_cell():
    return TenantCell(
        intensity="high",
        n_tenants=24,
        mean_interval_s=6.0,
        duration_s=30.0,
        seed=11,
        warmup_s=10.0,
    )


# Several tests read the same seeded cell; cells are frozen (hashable
# while they carry no explicit schedule), so each runs once per session.
_row = lru_cache(maxsize=None)(run_cell)


# -- grid definitions --------------------------------------------------------


def test_tenants_grid_shares_seed_across_policies():
    cells = GRIDS["tenants"].cells(True, 0)
    assert sorted(c.quota_policy for c in cells) == sorted(POLICIES)
    # All policies must face the identical workload: same seed per
    # (tenant count, skew) regardless of policy.
    assert len({(c.n_tenants, c.zipf_s, c.seed) for c in cells}) == 1
    assert not any(c.faulted for c in cells)


def test_cachewars_grid_shares_seed_across_backends():
    cells = GRIDS["cachewars"].cells(True, 0)
    assert tuple(c.backend for c in cells) == BACKEND_NAMES
    # Every architecture must face the identical workload: one shared
    # seed per (tenant count, skew), with the backend name excluded.
    assert len({(c.n_tenants, c.zipf_s, c.seed) for c in cells}) == 1
    assert not any(c.faulted for c in cells)


def test_chaos_grid_is_faulted_and_seeded_per_cell():
    cells = GRIDS["chaos"].cells(True, 0)
    assert {c.backend for c in cells} == set(BACKEND_NAMES)
    assert {c.intensity for c in cells} == {"medium", "high"}
    assert all(c.faulted and c.schedule is None for c in cells)
    assert len({c.seed for c in cells}) == len(cells) == 6
    assert len(GRIDS["chaos"].cells(False, 0)) == 18


def test_faults_grid_differs_only_in_the_schedule():
    baseline, crashed = GRIDS["faults"].cells(True, 0)
    # Both are audited, and face identical arrivals: one seed.
    assert baseline.faulted and baseline.schedule == {"events": []}
    assert [e["kind"] for e in crashed.schedule["events"]] == ["crash", "restart"]
    assert replace(crashed, schedule=baseline.schedule) == baseline


# -- the cell body -----------------------------------------------------------


def test_tiny_cell_produces_distributions():
    result = _row(_tenants_cell())
    assert result.submitted > 0
    assert result.completed > 0
    assert result.completed + result.failed == result.submitted
    assert result.tenants_active > 0
    assert 0.0 <= result.fairness_index <= 1.0
    assert 0.0 <= result.hit_ratio_p10 <= result.hit_ratio_p90 <= 1.0
    assert result.latency_p50_s <= result.latency_p99_s
    assert result.per_tenant_hit_ratio
    assert all(
        0.0 <= ratio <= 1.0
        for ratio in result.per_tenant_hit_ratio.values()
    )
    # An unfaulted cell records no history or timeline and audits nothing.
    assert (result.ops, result.schedule_events, result.violations_total) == (
        0, 0, 0,
    )
    assert (result.timeline, result.injector) == ([], {})
    assert sum(result.failures.values()) == result.failed


def test_quota_cell_rejects_and_matches_workload():
    base = _row(_tenants_cell("none"))
    quota = _row(_tenants_cell("static"))
    # Identical seed, identical arrival schedule.
    assert quota.submitted == base.submitted
    # The static policy actually refuses admissions under contention.
    assert quota.quota_rejections > 0
    assert base.quota_rejections == 0


def test_every_backend_completes_the_shared_workload():
    results = [_row(_cachewars_cell(b)) for b in BACKEND_NAMES]
    submitted = {r.submitted for r in results}
    assert submitted != {0}
    # Same seed, same arrival schedule, regardless of architecture.
    assert len(submitted) == 1
    for result in results:
        assert result.completed > 0
        assert result.completed + result.failed == result.submitted
        assert 0.0 <= result.hit_ratio <= 1.0
        assert result.latency_p50_s <= result.latency_p99_s
        assert result.cost_units >= 0.0
        assert result.cost_per_1k_invocations >= 0.0


def test_rival_pools_priced_dedicated_ofc_harvested():
    ofc = _row(_cachewars_cell("ofc"))
    faast = _row(_cachewars_cell("faast"))
    assert ofc.harvested_mb_s > 0.0
    assert ofc.dedicated_mb_s == 0.0
    assert faast.dedicated_mb_s > 0.0
    assert faast.harvested_mb_s == 0.0


def test_faulted_cell_fills_every_column():
    row = _row(_chaos_cell())
    # Consistency columns: a recorded history, a replayable schedule.
    assert row.ops > 0
    assert row.schedule_events == len(row.schedule["events"]) == 5
    assert (row.crashes, row.episodes) == (1, 3)
    assert row.violations_total == 0 and row.violations == {}
    # What the injector did, and one timeline window per 15 s from its
    # start (the end of warm-up) to the end of the settle.
    assert (row.injector["crashes"], row.injector["restarts"]) == (1, 1)
    times = [p["t"] for p in row.timeline]
    assert len(times) >= 5 and times[-1] >= row.schedule["events"][-1]["at"]
    widths = {round(b - a, 6) for a, b in zip(times, times[1:])}
    assert widths == {grid.TIMELINE_WINDOW_S}
    assert {p["live_servers"] for p in row.timeline} == {3, 4}
    # ...and the performance/cost/fairness columns of the same run.
    assert row.completed > 0
    assert 0.0 <= row.hit_ratio <= 1.0
    assert row.harvested_mb_s > 0.0
    assert row.per_tenant_hit_ratio
    assert row.log_stats
    # The explicit schedule replays the generated one exactly.
    replayed = run_cell(replace(_chaos_cell(), schedule=row.schedule))
    assert asdict(replayed) == asdict(row)


@pytest.mark.parametrize(
    "cell",
    [_tenants_cell("proportional"), _cachewars_cell("infinicache"), _chaos_cell()],
    ids=["tenants", "cachewars", "chaos"],
)
def test_cell_is_deterministic_for_fixed_seed(cell):
    # Back-to-back runs in one process must agree exactly: the id
    # counters are reset per cell, so nothing leaks between runs.
    assert asdict(run_cell(cell)) == asdict(run_cell(cell))


# -- export and table --------------------------------------------------------


def test_tenants_export_document(tmp_path):
    result = _row(_tenants_cell())
    out = tmp_path / "results" / "tenants_grid.json"
    export_grid(GRIDS["tenants"], [result], str(out))
    doc = json.loads(out.read_text())
    assert doc["meta"]["experiment"] == "tenants"
    assert "tenants_fairness_index" in doc["metrics"]
    assert "tenants_quota_rejections" in doc["metrics"]
    assert doc["collected"]["tenants"]["cells"] == 1
    row = doc["meta"]["grid"][0]
    assert row["quota_policy"] == "none"
    assert row["fairness_index"] == result.fairness_index
    assert row["per_tenant_hit_ratio"] == result.per_tenant_hit_ratio
    # The table formatter accepts the same rows.
    assert "fairness" in format_results(GRIDS["tenants"], [result])


def test_cachewars_export_document(tmp_path):
    result = _row(_cachewars_cell())
    out = tmp_path / "results" / "cachewars_grid.json"
    export_grid(GRIDS["cachewars"], [result], str(out))
    doc = json.loads(out.read_text())
    assert "cachewars_hit_ratio" in doc["metrics"]
    assert "cachewars_cost_per_1k_invocations" in doc["metrics"]
    assert doc["collected"]["cachewars"]["cells"] == 1
    assert doc["collected"]["cachewars"]["backends"] == ["ofc"]
    row = doc["meta"]["grid"][0]
    assert row["backend"] == "ofc"
    assert row["hit_ratio"] == result.hit_ratio
    assert row["cost_units"] == result.cost_units
    # The table formatter accepts the same rows.
    assert "backend" in format_results(GRIDS["cachewars"], [result])


def test_chaos_export_document(tmp_path):
    result = _row(_chaos_cell())
    out = tmp_path / "chaos_grid.json"
    export_grid(GRIDS["chaos"], [result], str(out), reproducers=["r.json"])
    doc = json.loads(out.read_text())
    assert "chaos_violations_total" in doc["metrics"] and "chaos_ops" in doc["metrics"]
    labels = doc["metrics"]["chaos_ops"]["series"][0]["labels"]
    assert labels == {"backend": "ofc", "intensity": "high", "quota": "none"}
    summary = doc["collected"]["chaos"]
    assert summary["ops"] == result.ops
    assert summary["crashes"] == result.crashes
    assert summary["failing_cells"] == 0
    assert summary["reproducers"] == ["r.json"]
    assert doc["meta"]["grid"][0]["schedule"] == result.schedule
    assert "violations" in format_results(GRIDS["chaos"], [result])


# -- chaos only: shrink, reproducer, exit status (cell body stubbed) ----------

_FUZZED = {
    "events": [
        {"kind": "crash", "at": 40.0, "node": "w0"},
        {"kind": "rsds_outage", "at": 45.0, "duration": 10.0},
        {"kind": "restart", "at": 50.0, "node": "w0"},
        {"kind": "crash", "at": 60.0, "node": "w2"},
        {"kind": "slow_network", "at": 65.0, "duration": 5.0, "scale": 4.0},
        {"kind": "restart", "at": 70.0, "node": "w2"},
    ]
}


def _stub_run_cell(culprit):
    """A cell body that "loses a write" iff ``culprit`` crashes."""

    def run(cell):
        schedule = cell.schedule if cell.schedule is not None else _FUZZED
        hit = cell.faulted and any(
            e["kind"] == "crash" and e["node"] == culprit
            for e in schedule["events"]
        )
        return GridRow(
            backend=cell.backend,
            quota_policy=cell.quota_policy,
            intensity=cell.intensity,
            n_tenants=cell.n_tenants,
            zipf_s=cell.zipf_s,
            duration_s=cell.duration_s,
            seed=cell.seed,
            nodes=cell.nodes,
            schedule=schedule if cell.faulted else {},
            violations_total=3 if hit else 0,
            violations={"durability": 3} if hit else {},
        )

    return run


def test_shrink_keeps_the_culprit_pair_and_reproducer_loads(
    monkeypatch, tmp_path
):
    monkeypatch.setattr(grid, "run_cell", _stub_run_cell("w2"))
    cell = replace(_chaos_cell(), backend="faast")
    row = grid.run_cell(cell)
    assert row.violations_total == 3
    minimized = shrink_failing_cell(cell, row, require="durability")
    assert [(e.kind, e.node) for e in minimized] == [
        ("crash", "w2"),
        ("restart", "w2"),
    ]
    path = export_reproducer(cell, row, minimized, str(tmp_path), tag="t")
    assert path.endswith("chaos_faast-high-none_t_seed11.json")
    # A plain runnable schedule: the "chaos" block does not get in
    # the loader's way, and it rebuilds the cell that failed.
    assert FaultSchedule.load(path).to_dict() == minimized.to_dict()
    assert json.loads(open(path).read())["chaos"]["violations"] == {"durability": 3}
    assert load_cell(path) == replace(cell, schedule=minimized.to_dict())


def test_chaos_command_prints_table_and_exits_1(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(grid, "run_cell", _stub_run_cell("w0"))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["chaos", "--quick", "--workers", "1"]) == 1
    captured = capsys.readouterr()
    assert "Chaos — randomized faults" in captured.out
    assert "3 {'durability': 3}" in captured.out
    assert "experiment failed: chaos: 18 invariant violations" in captured.err
    doc = json.loads((tmp_path / "results" / "chaos_grid.json").read_text())
    summary = doc["collected"]["chaos"]
    assert summary["failing_cells"] == 6
    assert len(summary["reproducers"]) == 6
    for path in summary["reproducers"]:
        assert path.startswith("examples/faults/chaos_")
        kinds = [e.kind for e in FaultSchedule.load(str(tmp_path / path))]
        assert kinds == ["crash", "restart"]


# -- `repro run` and `repro faults`, for real --------------------------------


def test_run_plain_schedule_exits_0(capsys):
    path = EXAMPLES / "crash_restart.json"
    assert cli.main(["run", "--quick", "--faults", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    samples = [line.split() for line in lines if line[:1].isdigit()]
    live = {int(t): int(nodes) for t, _ratio, nodes, _under in samples}
    # w1 is down from t=80 to t=160; the brown-out ends at t=220, after
    # the 120 s quick load, and the timeline still covers it.
    assert {n for t, n in live.items() if 80 < t < 160} == {3}
    assert max(live) >= 220 and live[max(live)] == 4
    assert ["violations", "0"] in [line.split() for line in lines]


def test_run_replays_the_cell_a_reproducer_documents(capsys):
    """It used to run the fixed ``ofc`` defaults under the file's events
    and exit 0 with "dirty finals at end 0"."""
    path = EXAMPLES / "chaos_faast-high-none_durability_seed0.json"
    assert cli.main(["run", "--faults", str(path)]) == 1
    captured = capsys.readouterr()
    counts = dict(
        line.split() for line in captured.out.splitlines() if len(line.split()) == 2
    )
    assert int(counts["durability"]) > 0 and int(counts["dirty-final"]) > 0
    assert int(counts["StoreUnavailable"]) > 0  # failures by cause
    assert "experiment failed: run: 34 invariant violations" in captured.err


def test_faults_command_rows_face_identical_arrivals(tmp_path, capsys):
    out = tmp_path / "faults_grid.json"
    args = ["faults", "--quick", "--workers", "1", "--grid-out", str(out)]
    assert cli.main(args) == 0
    table = capsys.readouterr().out
    assert "baseline" in table and "crash-restart" in table
    baseline, crashed = json.loads(out.read_text())["meta"]["grid"]
    for column in ("submitted", "completed", "failed", "failures"):
        assert baseline[column] == crashed[column], column
    assert baseline["submitted"] > 0
    assert not any(baseline["injector"].values())
    injector = crashed["injector"]
    assert (injector["crashes"], injector["restarts"]) == (1, 1)
    assert injector["recovered_objects"] > 0
    assert baseline["violations_total"] == crashed["violations_total"] == 0


# -- the CLI registry --------------------------------------------------------


def test_list_prints_the_registry(capsys):
    assert cli.main(["list"]) == 0
    assert capsys.readouterr().out.split() == [
        "fig2", "fig3", "table1", "benefit", "fig5", "fig6", "maturation",
        "fig7", "fig8", "fig9", "table2", "fig10", "faults", "report",
        "perf", "tenants", "cachewars", "chaos", "run",
    ]
    assert set(GRIDS) <= set(cli.COMMANDS)
    assert cli.ALL == tuple(cli.COMMANDS)[:13]


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_grid_out_defaults_per_experiment(name, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(grid, "run_cell", _stub_run_cell(None))
    monkeypatch.chdir(tmp_path)
    assert cli.main([name, "--quick", "--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert f"[grid written to results/{name}_grid.json]" in out
    doc = json.loads((tmp_path / "results" / f"{name}_grid.json").read_text())
    assert doc["meta"]["experiment"] == name
    assert cli.main([name, "--quick", "--workers", "1", "--grid-out", "g.json"]) == 0
    assert (tmp_path / "g.json").exists()
