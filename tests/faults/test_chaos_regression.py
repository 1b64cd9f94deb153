"""Minimized chaos reproducers as regression tests.

``examples/faults/chaos_faast-high-none_durability_seed0.json`` is the
ddmin-shrunk schedule the fuzzer found against the pre-fix Faa$T
backend (no shard replication) with the pre-fix persistor (no requeue
after the retry budget): a 25 s RSDS outage makes the persistor give
up, leaving acked writes only as dirty cache copies, and the following
node crash destroys some of those only copies — acked writes gone.

The same minimized schedule against today's defaults (shard mirroring
with backup promotion + persistor requeue) must produce zero
violations.  These runs replay the exact fuzzing cell, so they are the
slowest tests in the suite — but they are the acceptance evidence for
the chaos-harness fixes.
"""

import json
from pathlib import Path

import pytest

from repro.bench.grid import run_cell, TenantCell

REPRODUCER = (
    Path(__file__).resolve().parents[2]
    / "examples"
    / "faults"
    / "chaos_faast-high-none_durability_seed0.json"
)


def load_cell(path, **changes):
    """The cell a reproducer file documents (its ``chaos`` block is the
    cell, its events the schedule), optionally with fields replaced."""
    doc = json.loads(Path(path).read_text())
    block = {k: v for k, v in doc["chaos"].items() if k != "violations"}
    block.update(schedule={"events": doc["events"]}, **changes)
    return TenantCell(**block)


def test_reproducer_is_runnable_schedule():
    from repro.faults import FaultSchedule

    # The exported file is a plain runnable schedule: the extra "chaos"
    # metadata block must not break `repro run --faults <file>`.
    schedule = FaultSchedule.load(str(REPRODUCER))
    assert len(schedule) == 3
    kinds = sorted(e.kind for e in schedule)
    assert kinds == ["crash", "restart", "rsds_outage"]


@pytest.mark.slow
def test_minimized_schedule_loses_acked_writes_pre_fix():
    result = run_cell(load_cell(REPRODUCER))
    # The pre-fix backend demonstrably loses acked writes: durability
    # violations (data in neither RSDS nor cache) plus stuck dirty
    # finals from the given-up persists.
    assert result.violations.get("durability", 0) > 0
    assert result.violations.get("dirty-final", 0) > 0


@pytest.mark.slow
def test_fixed_defaults_survive_minimized_schedule():
    result = run_cell(load_cell(REPRODUCER, config_overrides=None))
    assert result.violations_total == 0
