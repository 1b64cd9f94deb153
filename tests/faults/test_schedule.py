"""Fault-schedule parsing and validation."""

import json

import pytest

from repro.faults import FaultEvent, FaultSchedule, ScheduleError


def test_events_sorted_by_time():
    schedule = FaultSchedule(
        [
            FaultEvent(at=100.0, kind="restart", node="w1"),
            FaultEvent(at=10.0, kind="crash", node="w1"),
        ]
    )
    assert [e.kind for e in schedule] == ["crash", "restart"]
    assert schedule.duration == 100.0
    assert schedule.nodes() == ["w1"]


def test_episode_end_counts_toward_duration():
    schedule = FaultSchedule(
        [FaultEvent(at=50.0, kind="rsds_outage", duration=30.0)]
    )
    assert schedule.duration == 80.0


@pytest.mark.parametrize(
    "payload",
    [
        {"at": 1.0, "kind": "nonsense"},
        {"at": -1.0, "kind": "crash", "node": "w0"},
        {"at": 1.0, "kind": "crash"},  # node events need a node
        {"at": 1.0, "kind": "rsds_outage"},  # episodes need duration
        {"at": 1.0, "kind": "rsds_brownout", "duration": 5.0, "scale": 0.0},
        {"at": 1.0, "kind": "crash", "node": "w0", "bogus": 1},
    ],
)
def test_invalid_events_rejected(payload):
    with pytest.raises(ScheduleError):
        FaultEvent.from_dict(payload)


def test_dict_round_trip():
    schedule = FaultSchedule(
        [
            FaultEvent(at=5.0, kind="crash", node="w2"),
            FaultEvent(at=9.0, kind="slow_network", duration=4.0, scale=3.0),
        ]
    )
    clone = FaultSchedule.from_dict(schedule.to_dict())
    assert clone.to_dict() == schedule.to_dict()


def test_json_file_round_trip(tmp_path):
    path = tmp_path / "sched.json"
    schedule = FaultSchedule(
        [
            FaultEvent(at=1.0, kind="crash", node="w0"),
            FaultEvent(at=2.0, kind="rsds_brownout", duration=1.0, scale=2.0),
        ]
    )
    schedule.save(str(path))
    loaded = FaultSchedule.load(str(path))
    assert loaded.to_dict() == schedule.to_dict()
    # The file itself is the documented format.
    payload = json.loads(path.read_text())
    assert payload["events"][0]["kind"] == "crash"


def test_from_dict_requires_events_key():
    with pytest.raises(ScheduleError):
        FaultSchedule.from_dict({"things": []})


def test_overlapping_crash_windows_rejected():
    with pytest.raises(ScheduleError, match="already down"):
        FaultSchedule(
            [
                FaultEvent(at=1.0, kind="crash", node="w1"),
                FaultEvent(at=2.0, kind="crash", node="w1"),
                FaultEvent(at=3.0, kind="restart", node="w1"),
            ]
        )


def test_restart_of_up_node_rejected():
    with pytest.raises(ScheduleError, match="not down"):
        FaultSchedule([FaultEvent(at=1.0, kind="restart", node="w1")])


def test_crash_after_restart_is_fine():
    schedule = FaultSchedule(
        [
            FaultEvent(at=1.0, kind="crash", node="w1"),
            FaultEvent(at=5.0, kind="restart", node="w1"),
            FaultEvent(at=9.0, kind="crash", node="w1"),
            FaultEvent(at=12.0, kind="restart", node="w1"),
        ]
    )
    assert len(schedule) == 4
