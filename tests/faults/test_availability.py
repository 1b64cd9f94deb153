"""End-to-end availability under a crash/restart schedule.

This is the acceptance test for the fault-injection subsystem: a
tenant workload must run to completion across a node crash + restart
with no unhandled ``ServerDown``/``NoSuchKey`` and no invariant
violated (lost write-backs included), and the cell's timeline must show
the node leave and return.
"""

from repro.bench.grid import crash_restart_schedule, faults_cell, run_cell
from repro.faults import FaultEvent, FaultSchedule


def _run(duration_s, schedule):
    return run_cell(faults_cell(duration_s, schedule, seed=11))


def test_crash_restart_schedule_shape():
    schedule = crash_restart_schedule(90.0, node="w1")
    kinds = [(event.kind, event.node) for event in schedule]
    assert kinds == [("crash", "w1"), ("restart", "w1")]
    assert schedule.events[0].at == 30.0
    assert schedule.events[1].at == 60.0


def test_availability_run_survives_crash_restart():
    row = _run(90.0, crash_restart_schedule(90.0, node="w1"))
    baseline = _run(90.0, FaultSchedule())
    # The workload made progress and nothing escaped the failure path:
    # the crash fails no invocation the same arrivals complete without it.
    assert row.completed > 0
    assert row.submitted == baseline.submitted
    assert (row.completed, row.failures) == (baseline.completed, baseline.failures)
    # No invariant violated: zero lost dirty write-backs among them.
    assert row.violations_total == 0
    assert row.injector["crashes"] == 1
    assert row.injector["restarts"] == 1
    assert row.injector["recovered_objects"] > 0
    # The sampler recorded the hit-ratio trajectory.
    assert len(row.timeline) >= 3
    assert row.min_window_hit_ratio is not None


def test_timeline_covers_a_schedule_that_outlasts_the_load():
    """The node comes back 30 s after the load stops; the timeline must
    still show it (sampling used to end at the load deadline)."""
    schedule = FaultSchedule(
        [
            FaultEvent(at=30.0, kind="crash", node="w1"),
            FaultEvent(at=90.0, kind="restart", node="w1"),
        ]
    )
    row = _run(60.0, schedule)
    assert min(p["live_servers"] for p in row.timeline) == 3
    assert row.timeline[-1]["t"] >= 90.0
    assert row.timeline[-1]["live_servers"] == 4


def test_availability_baseline_has_no_faults():
    row = _run(60.0, FaultSchedule())
    assert row.completed > 0
    assert set(row.failures) <= {"OOMKilled"}
    assert not any(row.injector.values())
    assert row.lost_objects == 0
    assert row.violations_total == 0
