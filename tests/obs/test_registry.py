"""Unit tests for the metrics registry (repro.obs.registry)."""

import pytest

from repro.obs.registry import MetricsRegistry


def test_registry_rejects_duplicate_collector():
    registry = MetricsRegistry()
    registry.register_collector("stats", lambda: {})
    with pytest.raises(ValueError):
        registry.register_collector("stats", lambda: {})


def test_snapshot_is_collectors_only():
    registry = MetricsRegistry()
    registry.register_collector("table2", lambda: {"hit_ratio": 0.9})
    registry.register_collector("rclib", lambda: {"misses": 3})
    assert registry.snapshot() == {
        "collected": {"rclib": {"misses": 3}, "table2": {"hit_ratio": 0.9}}
    }


def test_collectors_run_lazily_at_snapshot_time():
    registry = MetricsRegistry()
    state = {"calls": 0, "value": 1}

    def collect():
        state["calls"] += 1
        return {"value": state["value"]}

    registry.register_collector("live", collect)
    assert state["calls"] == 0
    state["value"] = 42
    snap = registry.snapshot()
    assert state["calls"] == 1
    assert snap["collected"]["live"]["value"] == 42
