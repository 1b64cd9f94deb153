"""End-to-end availability experiment under a crash/restart schedule.

This is the acceptance test for the fault-injection tentpole: a macro
workload must run to completion across a node crash + restart with no
unhandled ``ServerDown``/``NoSuchKey`` and zero lost dirty write-backs.
"""

from repro.bench.faults import crash_restart_schedule, run_availability
from repro.faults import FaultEvent, FaultSchedule


def test_crash_restart_schedule_shape():
    schedule = crash_restart_schedule(90.0, node="w1")
    kinds = [(event.kind, event.node) for event in schedule]
    assert kinds == [("crash", "w1"), ("restart", "w1")]
    assert schedule.events[0].at == 30.0
    assert schedule.events[1].at == 60.0


def test_availability_run_survives_crash_restart():
    schedule = crash_restart_schedule(90.0, node="w1")
    result = run_availability(
        "crash_restart", schedule=schedule, duration_s=90.0, seed=11
    )
    # The workload made progress and nothing escaped the failure path.
    assert result.completed > 0
    assert result.failed == 0
    # Zero lost dirty write-backs at the end of the run.
    assert result.dirty_final_at_end == 0
    snap = result.injector_snapshot
    assert snap["crashes"] == 1
    assert snap["restarts"] == 1
    # The sampler recorded the hit-ratio trajectory.
    assert len(result.points) >= 3
    assert result.final_hit_ratio is not None


def test_timeline_covers_a_schedule_that_outlasts_the_load():
    """The node comes back 30 s after the load stops; the timeline must
    still show it (sampling used to end at the load deadline)."""
    schedule = FaultSchedule(
        [
            FaultEvent(at=30.0, kind="crash", node="w1"),
            FaultEvent(at=90.0, kind="restart", node="w1"),
        ]
    )
    result = run_availability(
        "late_restart", schedule=schedule, duration_s=60.0, seed=11
    )
    assert min(p.live_servers for p in result.points) == 3
    assert result.points[-1].t >= 90.0
    assert result.points[-1].live_servers == 4


def test_availability_baseline_has_no_faults():
    result = run_availability("baseline", schedule=None, duration_s=60.0, seed=11)
    assert result.completed > 0
    assert result.failed == 0
    assert result.injector_snapshot is None
    assert result.lost_objects == 0
