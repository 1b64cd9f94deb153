"""Focused tests: slack estimation, webhook edge cases, metrics."""

from repro.core.metrics import OFCMetrics
from tests.core.conftest import deploy, invoke, seed_images


def test_slack_grows_with_churn(ofc):
    agent = ofc.agents["w0"]
    # Inject synthetic churn samples directly: mean |delta| = 400 MB.
    agent._churn_samples.extend([300.0, 500.0, 400.0])
    agent._last_committed_mb = 0.0
    # Drive the slack loop through one adjustment window.
    ofc.kernel.run(until=ofc.kernel.now + 130.0)
    assert agent.invoker.slack_mb >= 100.0


def test_slack_floor_is_initial_value(ofc):
    agent = ofc.agents["w0"]
    agent._churn_samples.extend([1.0, 2.0, 1.0])  # tiny churn
    ofc.kernel.run(until=ofc.kernel.now + 130.0)
    assert agent.invoker.slack_mb == 100.0  # never below the floor


def test_read_webhook_pushes_from_cache_when_no_persist_pending(ofc):
    """A stale RSDS shadow with a cached copy but no pending persistor:
    the webhook schedules the push itself (§6.2)."""
    ofc.store.ensure_bucket("b")

    def setup():
        yield from ofc.store.put("b", "o", None, 200, shadow=True, internal=True)
        yield from ofc.cluster.put(
            "b/o", "cached-data", 200, caller="w0", flags={"dirty": True}
        )

    ofc.kernel.run_until(ofc.kernel.process(setup()))
    assert ofc.persistor.pending_for("b/o") is None

    def external_get():
        obj = yield from ofc.store.get("b", "o")
        return obj

    obj = ofc.kernel.run_until(ofc.kernel.process(external_get()))
    assert obj.payload == "cached-data"
    assert not obj.meta.is_shadow


def test_read_webhook_with_lost_payload_returns_shadow(ofc):
    """If neither the cache nor a persistor holds the payload, the
    external reader sees the shadow (data lives nowhere else)."""
    ofc.store.ensure_bucket("b")

    def setup():
        yield from ofc.store.put("b", "o", None, 200, shadow=True, internal=True)

    ofc.kernel.run_until(ofc.kernel.process(setup()))

    def external_get():
        obj = yield from ofc.store.get("b", "o")
        return obj

    obj = ofc.kernel.run_until(ofc.kernel.process(external_get()))
    assert obj.payload is None
    assert obj.meta.is_shadow


def test_write_webhook_on_uncached_object_is_noop(ofc):
    ofc.store.ensure_bucket("b")

    def scenario():
        yield from ofc.store.put("b", "o", "v1", 100)
        yield from ofc.store.put("b", "o", "v2", 100)  # external overwrite

    ofc.kernel.run_until(ofc.kernel.process(scenario()))
    meta = ofc.store.peek_meta("b", "o")
    assert meta.version == 2


def test_metrics_snapshot_roundtrip():
    metrics = OFCMetrics()
    metrics.scale_ups = 3
    metrics.scale_up_time_s = 0.0123456
    metrics.record_cache_size(1.0, 100)
    metrics.record_cache_size(2.0, 200)
    snap = metrics.snapshot()
    assert snap["scale_ups"] == 3
    assert snap["scale_up_time_s"] == 0.012346  # rounded
    assert "cache_size_series" not in snap  # series is not a scalar
    assert metrics.cache_size_series == [(1.0, 100), (2.0, 200)]


def test_table2_snapshot_contains_all_rows(ofc):
    deploy(ofc)
    refs = seed_images(ofc, n=1)
    invoke(ofc, ref=refs[0])
    snap = ofc.table2_snapshot()
    for key in (
        "scale_ups",
        "scale_downs_plain",
        "scale_downs_migration",
        "scale_downs_eviction",
        "good_predictions",
        "bad_predictions",
        "failed_invocations",
        "cache_hit_ratio",
        "ephemeral_data_bytes",
    ):
        assert key in snap, key
