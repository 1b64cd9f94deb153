"""Minimized chaos reproducers as regression tests.

``examples/faults/chaos_faast-high-none_durability_seed0.json`` is the
ddmin-shrunk schedule the fuzzer found against the pre-fix Faa$T
backend (no shard replication) with the pre-fix persistor (no requeue
after the retry budget): a 25 s RSDS outage makes the persistor give
up, leaving acked writes only as dirty cache copies, and the following
node crash destroys some of those only copies — acked writes gone.

The same minimized schedule against today's defaults (shard mirroring
with backup promotion + persistor requeue) must produce zero
violations.  These runs replay the exact fuzzing cell
(:func:`repro.bench.grid.load_cell`, what ``repro run --faults`` runs):
they are the acceptance evidence for the chaos-harness fixes.
"""

import json
from pathlib import Path

import pytest

from repro.bench.grid import faults_cell, load_cell, run_cell
from repro.faults import FaultSchedule, ScheduleError

REPRODUCER = (
    Path(__file__).resolve().parents[2]
    / "examples"
    / "faults"
    / "chaos_faast-high-none_durability_seed0.json"
)


def test_reproducer_is_runnable_schedule():
    # The exported file is also a plain schedule: the extra "chaos"
    # block must not break `FaultSchedule.load`.
    schedule = FaultSchedule.load(str(REPRODUCER))
    assert len(schedule) == 3
    kinds = sorted(e.kind for e in schedule)
    assert kinds == ["crash", "restart", "rsds_outage"]


def test_minimized_schedule_loses_acked_writes_pre_fix():
    result = run_cell(load_cell(REPRODUCER))
    # The pre-fix backend demonstrably loses acked writes: durability
    # violations (data in neither RSDS nor cache) plus stuck dirty
    # finals from the given-up persists.
    assert result.violations.get("durability", 0) > 0
    assert result.violations.get("dirty-final", 0) > 0


def test_fixed_defaults_survive_minimized_schedule():
    result = run_cell(load_cell(REPRODUCER, config_overrides=None))
    assert result.violations_total == 0


def _edited_reproducer(tmp_path, edit):
    doc = json.loads(REPRODUCER.read_text())
    edit(doc["chaos"])
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_misspelt_config_override_is_rejected(tmp_path):
    """`setattr` took any name: the block below used to replay today's
    defaults and report zero violations."""

    def misspell(block):
        del block["config_overrides"]["faast_replication"]
        block["config_overrides"]["faast_replicaton"] = False

    cell = load_cell(_edited_reproducer(tmp_path, misspell))
    with pytest.raises(ScheduleError, match="faast_replicaton.*faast_replication"):
        run_cell(cell)


@pytest.mark.parametrize(
    "override,value,cell_field",
    [
        ("cache_backend", "ofc", "backend"),
        ("tenant_quota_policy", "static", "quota_policy"),
        ("tenant_static_fraction", 0.5, "n_tenants"),
        ("cache_cap_mb", 16.0, "cache_cap_mb"),
    ],
)
def test_override_of_a_cell_field_is_rejected(tmp_path, override, value, cell_field):
    """The cell sets these from its own fields and the overrides used to
    win: ``cache_backend: ofc`` on this Faa$T block ran OFC while the
    row reported ``faast``."""

    def contradict(block):
        block["config_overrides"][override] = value

    cell = load_cell(_edited_reproducer(tmp_path, contradict))
    with pytest.raises(ScheduleError, match=f"{override}.*'{cell_field}'"):
        run_cell(cell)


def test_unknown_chaos_block_field_is_rejected(tmp_path):
    path = _edited_reproducer(tmp_path, lambda block: block.update(tenants=40))
    with pytest.raises(ScheduleError, match=r"\['tenants'\].*n_tenants"):
        load_cell(path)


def test_plain_schedule_runs_on_the_faults_cell():
    path = REPRODUCER.with_name("crash_restart.json")
    assert load_cell(str(path), duration_s=90.0) == faults_cell(
        90.0, FaultSchedule.load(str(path))
    )
