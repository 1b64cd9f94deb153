"""Tests for the CacheAgent: sizing, reclamation, eviction, slack."""

import numpy as np
import pytest

from repro.sim.latency import KB, MB
from tests.core.conftest import deploy, invoke, seed_images


def total_cache_mb(ofc):
    return ofc.cluster.total_capacity / MB


def test_initial_cache_takes_free_memory(ofc):
    # 4 nodes x (4096 - 100 slack) MB and no sandboxes yet.
    assert total_cache_mb(ofc) == pytest.approx(4 * (4096 - 100), rel=0.01)


def test_sandbox_creation_shrinks_cache(ofc):
    deploy(ofc, booked=512.0)
    refs = seed_images(ofc, n=1)
    record = invoke(ofc, ref=refs[0])
    agent = ofc.agents[record.node]
    ofc.kernel.run(until=ofc.kernel.now + 1.0)  # let retarget land
    expected = (4096 - 100 - 512) * MB
    assert agent.server.capacity == pytest.approx(expected, rel=0.02)
    assert ofc.metrics.scale_downs_plain >= 1


def test_sandbox_reap_grows_cache_back(ofc):
    deploy(ofc, booked=512.0)
    refs = seed_images(ofc, n=1)
    record = invoke(ofc, ref=refs[0])
    agent = ofc.agents[record.node]
    before = agent.server.capacity
    ofc.kernel.run(until=ofc.kernel.now + 700.0)  # past keep-alive
    assert agent.server.capacity > before
    assert ofc.metrics.scale_ups >= 2  # initial + regrow


def test_ensure_capacity_reclaims_cache_memory(ofc):
    """A sandbox bigger than the node's free memory forces the agent to
    hand cache memory back (the §6.4 fast-reclaim path)."""
    deploy(ofc, fn_name="wand_sepia", booked=2048.0)
    refs = seed_images(ofc, n=1)
    # Commit most node memory to big sandboxes on every node first.
    for node in ofc.platform.invokers:
        node.total_memory_mb = 2400.0  # shrink nodes: 2048 + slack ~ tight
    record = invoke(ofc, ref=refs[0])
    assert record.status == "ok"
    agent = ofc.agents[record.node]
    # Cache gave back memory: capacity is now tiny.
    assert agent.server.capacity <= 300 * MB


def test_periodic_eviction_removes_cold_objects(ofc):
    deploy(ofc)
    refs = seed_images(ofc, n=3)
    for ref in refs:
        invoke(ofc, ref=ref)
    assert any(ofc.cluster.contains(ref) for ref in refs)
    # Objects have n_access <= 1 (< 5): the 300 s sweep evicts them once
    # they are older than one period.
    ofc.kernel.run(until=ofc.kernel.now + 700.0)
    assert not any(ofc.cluster.contains(ref) for ref in refs)
    assert ofc.metrics.evictions_periodic >= 3


def test_hot_objects_survive_periodic_eviction(ofc):
    deploy(ofc)
    refs = seed_images(ofc, n=1)
    rng = np.random.default_rng(3)
    # Read the input many times across 10 simulated minutes.
    for i in range(12):
        invoke(ofc, ref=refs[0], args={"threshold": float(rng.uniform(0.5, 1))})
        ofc.kernel.run(until=ofc.kernel.now + 55.0)
    assert ofc.cluster.contains(refs[0])  # n_access >= 5 and recently used


def test_migration_on_shrink_keeps_object_available(ofc):
    """Shrinking a node with cached inputs migrates masters instead of
    dropping them (the optimized hand-off, §6.4)."""
    deploy(ofc, booked=2048.0)
    refs = seed_images(ofc, n=2, size=256 * KB)
    record = invoke(ofc, ref=refs[0])
    node = record.node
    assert ofc.cluster.location_of(refs[0]) == node
    agent = ofc.agents[node]
    # Force a shrink to almost nothing.
    ofc.kernel.run_until(ofc.kernel.process(agent._shrink_to(0)))
    # The input survived on another node.
    new_location = ofc.cluster.location_of(refs[0])
    assert new_location is not None and new_location != node
    assert ofc.cluster.stats.migrations >= 1


def test_slack_pool_adjusts_with_churn(ofc):
    deploy(ofc)
    refs = seed_images(ofc, n=4)
    rng = np.random.default_rng(1)
    agent = ofc.agents[ofc.platform.invokers[0].node_id]
    assert agent.invoker.slack_mb == 100.0
    # Generate sandbox churn for a few minutes.
    for _ in range(6):
        invoke(ofc, ref=refs[int(rng.integers(0, 4))])
        ofc.kernel.run(until=ofc.kernel.now + 65.0)
    # Slack never drops below the initial 100 MB floor.
    for invoker in ofc.platform.invokers:
        assert invoker.slack_mb >= 100.0


def test_cache_size_series_recorded(ofc):
    deploy(ofc)
    refs = seed_images(ofc, n=1)
    invoke(ofc, ref=refs[0])
    ofc.kernel.run(until=ofc.kernel.now + 10.0)
    series = ofc.metrics.cache_size_series
    assert len(series) >= 2
    times = [t for t, _ in series]
    assert times == sorted(times)


def test_dirty_objects_survive_eviction_until_persisted(ofc):
    """Periodic eviction never drops a dirty object: it schedules a
    write-back instead."""
    deploy(ofc)
    agent = ofc.agents[ofc.platform.invokers[0].node_id]

    def seed_dirty():
        yield from ofc.cluster.put(
            "outputs/dirty-obj",
            "payload",
            64 * KB,
            caller=agent.node_id,
            flags={"dirty": True, "final": True},
        )

    ofc.kernel.run_until(ofc.kernel.process(seed_dirty()))
    ofc.store.ensure_bucket("outputs")

    def shadow():
        yield from ofc.store.put(
            "outputs", "dirty-obj", None, size=64 * KB, shadow=True, internal=True
        )

    ofc.kernel.run_until(ofc.kernel.process(shadow()))
    # Age the object past one eviction period and sweep.
    ofc.kernel.run(until=ofc.kernel.now + 301.0)
    ofc.kernel.run_until(ofc.kernel.process(agent.run_periodic_eviction()))
    # Still cached (dirty) but a persist is now scheduled/in flight.
    assert ofc.persistor.stats.scheduled >= 1
    ofc.kernel.run(until=ofc.kernel.now + 5.0)
    meta = ofc.store.peek_meta("outputs", "dirty-obj")
    assert not meta.is_shadow  # payload reached the RSDS


def test_fits_skips_a_cleaner_pass_with_nothing_to_relocate(ofc, monkeypatch):
    """No under-used closed segment: ``_fits`` does not call the
    cleaner, yet counts the pass as the cleaner would."""
    agent = ofc.agents["w0"]
    log = agent.server.log
    called = []
    monkeypatch.setattr(log, "clean", lambda: called.append(1) or (0, 0))
    assert not log.cleanable
    cleanings = log.stats.cleanings
    assert agent._fits(log.footprint_bytes - 1) is False
    assert (called, log.stats.cleanings) == ([], cleanings + 1)
    log.cleanable.add(log._head)
    agent._fits(log.footprint_bytes - 1)
    assert called == [1]
