"""FaultInjector behaviour: episodes, node events, zero-cost hooks."""

import pytest

from repro.core import OFCPlatform
from repro.faas.platform import PlatformConfig
from repro.faults import FaultEvent, FaultInjector, FaultSchedule
from repro.sim import Kernel
from repro.sim.faults import FaultState
from repro.sim.latency import MB
from repro.storage.errors import StoreUnavailable
from repro.storage.object_store import ObjectStore


@pytest.fixture()
def ofc():
    system = OFCPlatform(
        platform_config=PlatformConfig(node_memory_mb=4096), seed=3
    )
    system.store.create_bucket("inputs")
    system.store.create_bucket("outputs")
    system.start()
    return system


def schedule(*events):
    return FaultSchedule(list(events))


def drive(kernel, gen):
    """Run one process to completion without draining the queue (the
    started platform keeps periodic loops alive forever)."""
    return kernel.run_until(kernel.process(gen))


def test_unknown_node_rejected_at_construction(ofc):
    from repro.faults import ScheduleError

    with pytest.raises(ScheduleError, match="unknown node"):
        FaultInjector(
            ofc,
            schedule(
                FaultEvent(at=1.0, kind="crash", node="w99"),
                FaultEvent(at=5.0, kind="restart", node="w99"),
            ),
        )


def test_injector_wires_fault_state(ofc):
    injector = FaultInjector(ofc, schedule())
    assert ofc.store.faults is injector.state
    assert ofc.cluster.faults is injector.state
    assert not injector.state.any_active


def test_faults_collector_registered(ofc):
    FaultInjector(ofc, schedule())
    collected = ofc.obs.snapshot()["collected"]
    assert "faults" in collected
    assert collected["faults"]["crashes"] == 0
    assert collected["faults"]["rsds_down"] == 0


def test_second_injector_rebinds_faults_collector(ofc):
    """Last writer wins: the ``faults`` collector must report the
    *newest* injector's stats.  The old registration path swallowed the
    duplicate-name ValueError, leaving the first injector's snapshot
    bound forever and silently discarding every later injector's
    counters."""
    first = FaultInjector(ofc, schedule())
    second = FaultInjector(ofc, schedule())
    assert ofc.store.faults is second.state
    first.stats.crashes = 7
    second.stats.crashes = 2
    collected = ofc.obs.snapshot()["collected"]
    assert collected["faults"]["crashes"] == 2


def test_outage_episode_raises_store_unavailable(ofc):
    injector = FaultInjector(
        ofc, schedule(FaultEvent(at=10.0, kind="rsds_outage", duration=5.0))
    )
    injector.start()
    ofc.kernel.run(until=12.0)
    assert injector.state.rsds_down

    def attempt():
        yield from ofc.store.get("inputs", "nothing", internal=True)

    with pytest.raises(StoreUnavailable):
        drive(ofc.kernel, attempt())
    assert ofc.store.stats.unavailable_errors >= 1
    # Run past the episode end: knob flips back off.
    ofc.kernel.run(until=16.0)
    assert not injector.state.rsds_down
    assert injector.stats.outages == 1


def test_brownout_scales_store_latency():
    def timed_get(faults):
        kernel = Kernel()
        store = ObjectStore(kernel, rng=None)
        store.faults = faults
        store.create_bucket("b")

        def scenario():
            yield from store.put("b", "x", b"v", 100_000, internal=True)
            t0 = kernel.now
            yield from store.get("b", "x", internal=True)
            return kernel.now - t0

        return kernel.run_process(scenario())

    healthy = timed_get(None)
    slow_state = FaultState()
    slow_state.enter_brownout(4.0)
    slowed = timed_get(slow_state)
    assert slowed == pytest.approx(4.0 * healthy, rel=1e-9)


@pytest.mark.parametrize(
    "kind,knob",
    [
        ("rsds_brownout", "rsds_latency_scale"),
        ("slow_network", "network_latency_scale"),
    ],
)
@pytest.mark.parametrize("first,second", [(1.1, 1.9), (1.2, 1.7), (1.1, 1.3)])
def test_overlapping_scaled_episodes_return_to_exactly_one(
    ofc, kind, knob, first, second
):
    """Two overlapping episodes with non-dyadic scales must leave the
    knob at exactly 1.0: multiply-on-entry/divide-on-exit left a rounding
    residue (1.0*1.1*1.9/1.1/1.9 != 1.0) that kept ``any_active`` true
    and every later latency off by a last-bit factor."""
    injector = FaultInjector(
        ofc,
        schedule(
            FaultEvent(at=10.0, kind=kind, duration=10.0, scale=first),
            FaultEvent(at=15.0, kind=kind, duration=10.0, scale=second),
        ),
    )
    injector.start()
    ofc.kernel.run(until=17.0)
    assert getattr(injector.state, knob) == first * second
    ofc.kernel.run(until=22.0)
    assert getattr(injector.state, knob) == second
    ofc.kernel.run(until=26.0)
    assert getattr(injector.state, knob) == 1.0
    assert not injector.state.any_active


def test_slow_network_scales_remote_cache_ops(ofc):
    cluster = ofc.cluster
    cluster.rng = None

    def timed_remote_get():
        def scenario():
            t0 = ofc.kernel.now
            yield from cluster.get("inputs/k", caller="w1")
            return ofc.kernel.now - t0

        return drive(ofc.kernel, scenario())

    def put():
        yield from cluster.put("inputs/k", "v", 200_000, caller="w0")

    drive(ofc.kernel, put())
    healthy = timed_remote_get()
    state = FaultState()
    state.enter_slow_network(3.0)
    cluster.faults = state
    slowed = timed_remote_get()
    assert slowed == pytest.approx(3.0 * healthy, rel=1e-9)


def test_bypass_cache_skips_cluster(ofc):
    state = FaultState()
    state.enter_bypass()
    ofc.cluster.faults = state
    record_stub = type("R", (), {"should_cache": True})()
    client = ofc._make_data_client(ofc.platform.invokers[0], record_stub)

    def scenario():
        yield from client.write("outputs", "o", b"payload", 50_000)
        obj = yield from client.read("outputs", "o")
        return obj

    obj = drive(ofc.kernel, scenario())
    assert obj.payload == b"payload"
    assert ofc.rclib_stats.bypass_writes == 1
    assert ofc.rclib_stats.bypass_reads == 1
    # Nothing touched the cache.
    assert ofc.cluster.stats.puts == 0
    assert not ofc.cluster.contains("outputs/o")


def test_crash_event_recovers_masters(ofc):
    def seed():
        for i in range(3):
            yield from ofc.cluster.put(
                f"inputs/k{i}", b"v", 100_000, caller="w1"
            )

    drive(ofc.kernel, seed())
    assert ofc.cluster.location_of("inputs/k0") == "w1"

    injector = FaultInjector(
        ofc, schedule(FaultEvent(at=ofc.kernel.now + 5.0, kind="crash", node="w1"))
    )
    injector.start()
    ofc.kernel.run(until=ofc.kernel.now + 20.0)
    assert not ofc.cluster.server("w1").up
    assert injector.stats.crashes == 1
    assert injector.stats.recovered_objects == 3
    for i in range(3):
        key = f"inputs/k{i}"
        location = ofc.cluster.location_of(key)
        assert location is not None and location != "w1"


def test_restart_event_runs_repair(ofc):
    # Shrink the cluster's spare disk by crashing TWO nodes, so keys
    # replicated while they are down come up under-replicated (only one
    # backup candidate remains besides the master).
    def seed():
        yield from ofc.cluster.put("inputs/k", b"v", 100_000, caller="w0")

    injector = FaultInjector(
        ofc,
        schedule(
            FaultEvent(at=1.0, kind="crash", node="w2"),
            FaultEvent(at=1.0, kind="crash", node="w3"),
            FaultEvent(at=10.0, kind="restart", node="w2"),
            FaultEvent(at=10.0, kind="restart", node="w3"),
        ),
    )
    injector.start()
    ofc.kernel.run(until=5.0)
    drive(ofc.kernel, seed())
    # Replication factor is 2 but only one live backup candidate (w1).
    assert "inputs/k" in ofc.cluster.under_replicated_keys
    ofc.kernel.run(until=30.0)
    assert injector.stats.restarts == 2
    assert "inputs/k" not in ofc.cluster.under_replicated_keys
    assert len(ofc.cluster.coordinator.backups_of("inputs/k")) == 2


def test_inactive_fault_state_is_schedule_neutral():
    """Wiring a FaultState with no active episodes must not perturb the
    simulated schedule (zero-cost-when-disabled contract)."""

    def run_once(attach_state):
        kernel = Kernel()
        from repro.kvcache.cluster import CacheCluster
        from repro.sim.rng import RngRegistry

        rng = RngRegistry(17)
        cluster = CacheCluster(kernel, ["w0", "w1", "w2"], rng=rng.batched_stream("c"))
        for node in ("w0", "w1", "w2"):
            cluster.server(node).resize(64 * MB)
        store = ObjectStore(kernel, rng=rng.batched_stream("s"))
        store.create_bucket("b")
        if attach_state:
            state = FaultState()
            cluster.faults = state
            store.faults = state

        def scenario():
            for i in range(20):
                yield from cluster.put(f"b/k{i}", b"v", 10_000, caller="w0")
                yield from cluster.get(f"b/k{i}", caller="w1")
                yield from store.put("b", f"k{i}", b"v", 10_000, internal=True)
                yield from store.get("b", f"k{i}", internal=True)
            return kernel.now

        return kernel.run_process(scenario())

    assert run_once(False) == run_once(True)
