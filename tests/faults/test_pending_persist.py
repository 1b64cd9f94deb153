"""Crash-during-pending-persist coverage (tentpole acceptance paths).

The dangerous window is between ``PersistorService.schedule`` and the
flush actually landing in the RSDS: the master holding the dirty copy
can die, the RSDS can be down, or an external reader can arrive and
boost the pending persist.  In every case the write-back must neither
be lost nor duplicated.
"""

from repro.core import OFCPlatform
from repro.core.cache_agent import EVICTION_PERIOD_S
from repro.core.config import OFCConfig
from repro.faas.platform import PlatformConfig
from repro.sim.faults import FaultState


def make_ofc(**config_kwargs):
    system = OFCPlatform(
        config=OFCConfig(**config_kwargs) if config_kwargs else None,
        platform_config=PlatformConfig(node_memory_mb=4096),
        seed=3,
    )
    system.store.create_bucket("inputs")
    system.store.create_bucket("outputs")
    system.start()
    return system


def make_client(ofc, node_index=0):
    record_stub = type("R", (), {"should_cache": True})()
    return ofc._make_data_client(ofc.platform.invokers[node_index], record_stub)


def drive(ofc, gen):
    """Run one process to completion without draining the queue (the
    started platform keeps periodic loops alive forever)."""
    return ofc.kernel.run_until(ofc.kernel.process(gen))


def write_only(ofc, client, payload=b"payload", size=50_000):
    """Run the rclib write and stop — the persistor stays pending."""

    def writer():
        yield from client.write("outputs", "o", payload, size)

    drive(ofc, writer())


def test_master_crash_between_schedule_and_flush():
    ofc = make_ofc()
    client = make_client(ofc)
    write_only(ofc, client)
    key = "outputs/o"
    pending = ofc.persistor.pending_for(key)
    assert pending is not None
    location = ofc.cluster.location_of(key)
    ofc.cluster.crash(location)
    # The flush still runs (the payload travels with the persistor) and
    # its dirty-clear lands on the surviving replicas.
    ofc.kernel.run_until(pending)
    meta = ofc.store.peek_meta("outputs", "o")
    assert meta.rsds_version == meta.version  # payload persisted
    assert ofc.persistor.stats.completed == 1
    recovered = drive(ofc, ofc.cluster.recover(location))
    assert recovered == 1
    promoted = ofc.cluster.peek(key)
    # The promotion must not resurrect dirty=True for the persisted
    # version — that would re-run the write-back.
    assert promoted is None or promoted.flags.get("dirty") is False


def test_external_read_boosts_pending_persist_of_crashed_master():
    ofc = make_ofc()
    client = make_client(ofc)
    payload = b"fresh-bytes"
    write_only(ofc, client, payload=payload)
    key = "outputs/o"
    ofc.cluster.crash(ofc.cluster.location_of(key))

    def external_reader():
        obj = yield from ofc.store.get("outputs", "o")  # external: hooks on
        return obj

    obj = drive(ofc, external_reader())
    # The read waited for the pending persist and saw the new payload.
    assert obj.payload == payload
    assert ofc.persistor.stats.boosts == 1


def test_persistor_retries_through_rsds_outage():
    ofc = make_ofc()
    client = make_client(ofc)
    state = FaultState()
    ofc.store.faults = state
    ofc.cluster.faults = state
    write_only(ofc, client)
    pending = ofc.persistor.pending_for("outputs/o")
    state.enter_outage()

    def heal():
        yield 1.0
        state.exit_outage()

    ofc.kernel.process(heal(), name="heal")
    ofc.kernel.run_until(pending)
    assert ofc.persistor.stats.retries >= 1
    assert ofc.persistor.stats.gave_up == 0
    assert ofc.persistor.stats.completed == 1
    meta = ofc.store.peek_meta("outputs", "o")
    assert meta.rsds_version == meta.version


def test_persistor_gives_up_but_keeps_copy_dirty():
    ofc = make_ofc()
    client = make_client(ofc)
    state = FaultState()
    ofc.store.faults = state
    ofc.cluster.faults = state
    write_only(ofc, client)
    pending = ofc.persistor.pending_for("outputs/o")
    state.enter_outage()  # never healed
    ofc.kernel.run_until(pending)
    assert ofc.persistor.stats.gave_up == 1
    assert ofc.persistor.stats.completed == 0
    # The dirty copy survives in the cache: eviction/shrink re-schedules
    # the persist after the outage, so the update is not lost.
    cached = ofc.cluster.peek("outputs/o")
    assert cached is not None
    assert cached.flags["dirty"] is True


def test_recovered_dirty_object_written_back_by_agent():
    """End-to-end: relaxed-mode write → master crash → recovery promotes
    the dirty copy → the cache agent's eviction sweep writes it back."""
    ofc = make_ofc(strict_consistency=False)
    client = make_client(ofc)
    payload = b"dirty-bytes"
    write_only(ofc, client, payload=payload)
    key = "outputs/o"
    assert ofc.cluster.peek(key).flags["dirty"] is True
    assert not ofc.store.contains("outputs", "o")  # relaxed: no shadow

    location = ofc.cluster.location_of(key)
    ofc.cluster.crash(location)
    recovered = drive(ofc, ofc.cluster.recover(location))
    assert recovered == 1
    new_location = ofc.cluster.location_of(key)
    assert new_location is not None and new_location != location
    assert ofc.cluster.peek(key).flags["dirty"] is True

    # Make the object cold, then run the new master's eviction sweep
    # (the background loops may have written it back already; the
    # explicit sweep makes the test independent of their phase).
    ofc.kernel.run(until=ofc.kernel.now + 3 * EVICTION_PERIOD_S)
    agent = ofc.agents[new_location]
    drive(ofc, agent.run_periodic_eviction())
    pending = ofc.persistor.pending_for(key)
    if pending is not None:
        ofc.kernel.run_until(pending)
    stored = ofc.store.peek_meta("outputs", "o")
    assert stored is not None
    assert ofc.store._object("outputs", "o").payload == payload
    cached = ofc.cluster.peek(key)
    assert cached is None or cached.flags["dirty"] is False


def test_persistor_requeues_past_retry_budget():
    """Chaos-harness fix: an outage longer than the in-line retry
    budget must requeue the flush instead of giving up (the give-up
    left the acked write as a dirty cache copy one crash away from
    being lost)."""
    ofc = make_ofc()
    client = make_client(ofc)
    state = FaultState()
    ofc.store.faults = state
    ofc.cluster.faults = state
    write_only(ofc, client)
    pending = ofc.persistor.pending_for("outputs/o")
    state.enter_outage()

    def heal():
        yield 20.0  # longer than the ~11 s exponential-backoff budget
        state.exit_outage()

    ofc.kernel.process(heal(), name="heal")
    ofc.kernel.run_until(pending)
    assert ofc.persistor.stats.requeues >= 1
    assert ofc.persistor.stats.gave_up == 0
    assert ofc.persistor.stats.completed == 1
    meta = ofc.store.peek_meta("outputs", "o")
    assert meta.rsds_version == meta.version


def test_requeue_disabled_restores_pre_fix_give_up():
    ofc = make_ofc(persistor_requeue=False)
    client = make_client(ofc)
    state = FaultState()
    ofc.store.faults = state
    ofc.cluster.faults = state
    write_only(ofc, client)
    pending = ofc.persistor.pending_for("outputs/o")
    state.enter_outage()

    def heal():
        yield 20.0
        state.exit_outage()

    ofc.kernel.process(heal(), name="heal")
    ofc.kernel.run_until(pending)
    # Pre-fix mode: one retry budget, then terminal give-up — even
    # though the outage heals 9 s later.
    assert ofc.persistor.stats.gave_up == 1
    assert ofc.persistor.stats.requeues == 0
    assert ofc.persistor.stats.completed == 0
    cached = ofc.cluster.peek("outputs/o")
    assert cached is not None and cached.flags["dirty"] is True


def test_bypass_read_boosts_pending_persist():
    """Degraded (bypass-cache) reads go straight to the RSDS — they
    must first boost a pending persist or they read a stale shadow."""
    ofc = make_ofc()
    client = make_client(ofc)
    payload = b"bypass-bytes"
    write_only(ofc, client, payload=payload)
    assert ofc.persistor.pending_for("outputs/o") is not None
    state = FaultState()
    ofc.cluster.faults = state
    ofc.store.faults = state
    state.enter_bypass()

    def reader():
        obj = yield from client.read("outputs", "o")
        return obj

    obj = drive(ofc, reader())
    assert obj.payload == payload
    assert ofc.rclib_stats.bypass_reads == 1
    assert ofc.rclib_stats.pending_boosts >= 1


def test_bypass_write_invalidates_cached_copy():
    """A bypass write updates the RSDS behind the cache; the write
    webhook must drop the now-stale cached copy."""
    ofc = make_ofc()
    client = make_client(ofc)
    old, new = b"old-bytes", b"new-bytes"
    write_only(ofc, client, payload=old)
    pending = ofc.persistor.pending_for("outputs/o")
    ofc.kernel.run_until(pending)  # flush lands; final output discarded

    def warm_read():
        obj = yield from client.read("outputs", "o")
        return obj

    # Re-fill the cache from the RSDS so a clean cached copy exists
    # (the miss fill is asynchronous — give it a beat to land).
    assert drive(ofc, warm_read()).payload == old
    ofc.kernel.run(until=ofc.kernel.now + 1.0)
    assert ofc.cluster.peek("outputs/o") is not None
    state = FaultState()
    ofc.cluster.faults = state
    ofc.store.faults = state
    state.enter_bypass()

    def writer():
        yield from client.write("outputs", "o", new, 50_000)

    drive(ofc, writer())
    assert ofc.rclib_stats.bypass_writes == 1
    assert ofc.cluster.peek("outputs/o") is None  # stale copy dropped
    state.exit_bypass()

    def reader():
        obj = yield from client.read("outputs", "o")
        return obj

    assert drive(ofc, reader()).payload == new


def test_store_unavailable_not_raised_when_no_faults():
    ofc = make_ofc()
    client = make_client(ofc)
    write_only(ofc, client)
    pending = ofc.persistor.pending_for("outputs/o")
    assert pending is not None
    ofc.kernel.run_until(pending)
    assert ofc.store.stats.unavailable_errors == 0
    assert ofc.persistor.stats.retries == 0