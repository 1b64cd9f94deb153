"""Scenarios over every registered cache backend.

The contract itself — :class:`repro.kvcache.backend.CacheBackend` — is
judged by the state machine in ``test_backend_machine.py``; the data
plane scenarios here are fixed replays through it.  The rest pin
wiring (the registry, the fault injector, the fault episodes, snapshot
shapes) and one bug (flags after crash recovery).  Parametrizing the
module over the registry gives a new backend all of them for free.
"""

import pytest

from repro.cache import BACKENDS, make_backend
from repro.core import OFCPlatform
from repro.core.config import OFCConfig
from repro.faas.platform import PlatformConfig
from repro.faults import FaultEvent, FaultInjector, FaultSchedule
from repro.kvcache.cluster import CacheCluster
from repro.sim import Kernel
from repro.sim.latency import MB
from tests.cache.test_backend_machine import build, KEYS, MAX_OBJECT, NODES, replay

pytestmark = pytest.mark.parametrize(
    "backend_name", sorted(BACKENDS), ids=sorted(BACKENDS)
)


def _config() -> OFCConfig:
    # A deployment's config: small erasure-coding geometry so three
    # nodes give full stripes, short periods so loops tick in the run.
    return OFCConfig(
        infinicache_data_chunks=2,
        infinicache_parity_chunks=1,
        infinicache_lambdas_per_node=2,
        infinicache_backup_period_s=5.0,
        infinicache_reclaim_period_s=10.0,
        faast_scale_period_s=5.0,
    )


def drive(kernel, gen):
    """Run one process to completion (periodic backend loops stay up)."""
    return kernel.run_until(kernel.process(gen))


# -- registry ---------------------------------------------------------------


def test_registry_constructs_named_backend(backend_name):
    kernel, backend = build(backend_name)
    assert backend.name == backend_name


def test_only_the_ofc_backend_is_the_cluster(backend_name):
    """No forwarding layer: on ``ofc`` the backend *is* the CacheCluster
    and a deployment's ``cluster`` is that same object."""
    _kernel, backend = build(backend_name)
    assert isinstance(backend, CacheCluster) == (backend_name == "ofc")
    config = _config()
    config.cache_backend = backend_name
    system = OFCPlatform(config=config)
    assert system.cluster is (system.backend if backend_name == "ofc" else None)


def test_unknown_backend_rejected(backend_name):
    with pytest.raises(ValueError, match="unknown cache backend"):
        make_backend("no-such-arch", Kernel(), NODES)


# -- data plane: replays through the contract machine -------------------
#
# Each scenario is a fixed step list; the machine's loss model (served
# value, size, version and flags equal the acknowledged ones, an
# oversize put changes nothing, ``objects()`` lists every served key on
# its node, hooks balance ``objects()``, control-plane reads take no
# time, usage covers what is served and, off ``ofc``, fits the
# capacity, a crashed node serves nothing) is the assertion after every
# step.


def test_read_your_writes(backend_name):
    replay(
        backend_name,
        ("put", "a/k0", 1000, "w0", "t0", False),
        ("get", "a/k0", "w0"),
    )


def test_overwrite_bumps_version(backend_name):
    machine = replay(
        backend_name,
        ("put", "a/k0", 1000, "w0", "t0", False),
        ("put", "a/k0", 2000, "w1", "t0", False),
        ("get", "a/k0", "w0"),
    )
    assert machine.ref["a/k0"].versions == {2}


def test_get_missing_raises(backend_name):
    replay(backend_name, ("get", "a/k0", "w0"))


def test_oversize_rejected_without_state_change(backend_name):
    replay(backend_name, ("put", "a/k0", MAX_OBJECT + 1, "w0", "t0", False))


def test_delete_then_miss(backend_name):
    replay(
        backend_name,
        ("put", "a/k0", 1000, "w0", "t0", False),
        ("delete", "a/k0", "w0"),
    )


def test_peek_and_location_without_latency(backend_name):
    replay(backend_name, ("put", "a/k0", 1000, "w1", "t0", False))


def test_set_flags_visible_to_peek(backend_name):
    replay(
        backend_name,
        ("put", "a/k0", 1000, "w0", "t0", True),
        ("persisted", "a/k0", True),
    )


def test_set_flags_missing_raises(backend_name):
    replay(backend_name, ("persisted", "a/k0"))


def test_objects_enumerates_primaries(backend_name):
    replay(
        backend_name,
        *[("put", key, 1000 + i, "w0", "t0", False) for i, key in enumerate(KEYS)],
    )


def test_admission_and_removal_hooks_fire(backend_name):
    replay(
        backend_name,
        ("put", "a/k0", 1000, "w0", "t1", False),
        ("delete", "a/k0", "w0"),
    )


def test_overwrite_reports_removal_of_old_copy(backend_name):
    replay(
        backend_name,
        ("put", "a/k0", 1000, "w0", "t0", False),
        ("put", "a/k0", 1000, "w0", "t1", False),
    )


def test_capacity_and_usage_track_contents(backend_name):
    machine = replay(backend_name, ("put", "a/k0", 100_000, "w0", "t0", False))
    # One open log segment fits even ``ofc``'s pool.
    assert machine.backend.total_used <= machine.backend.total_capacity


# -- crash/restart consistency ----------------------------------------------


def test_crash_recover_never_resurrects_stale_flags(backend_name):
    """After losing the hosting node, a backend may forget the object
    (it survives in the RSDS) — but a copy it *does* serve must carry
    the latest flags and version, or the write-back fires twice."""
    kernel, backend = build(backend_name)

    def seed():
        yield from backend.put(
            "a/k", "v", 1000, caller="w0", flags={"dirty": True}
        )

    drive(kernel, seed())
    # Give periodic loops (InfiniCache's backup pass) a chance to copy
    # the dirty version, then clear the flag — as the persistor does.
    kernel.run(until=kernel.now + 12.0)
    backend.set_flags("a/k", dirty=False)
    victim = backend.location_of("a/k")
    backend.crash(victim)

    def recover():
        recovered = yield from backend.recover(victim)
        repaired = yield from backend.repair()
        return recovered, repaired

    drive(kernel, recover())
    obj = backend.peek("a/k")
    if obj is not None:
        assert obj.version == 1
        assert obj.flags["dirty"] is False
    backend.restart(victim)
    snap = backend.stats_snapshot()
    assert snap["live_servers"] == len(NODES)


def test_crashed_node_not_reported_as_location(backend_name):
    replay(
        backend_name,
        *[("put", key, 1000, "w0", "t0", False) for key in KEYS],
        ("crash", "a/k0", "w0"),
    )


def test_fault_injector_end_to_end(backend_name):
    """The injector drives crash → detect → recover/repair → restart
    through the backend seam on a full deployment."""
    config = _config()
    config.cache_backend = backend_name
    system = OFCPlatform(
        config=config,
        platform_config=PlatformConfig(
            node_ids=list(NODES), node_memory_mb=4096
        ),
        seed=7,
    )
    system.store.create_bucket("inputs")
    system.store.create_bucket("outputs")
    system.start()
    backend = system.backend
    if backend_name == "ofc":
        for node in NODES:
            backend.server(node).resize(64 * MB)

    def seed():
        for i in range(4):
            yield from backend.put(
                f"inputs/k{i}", i, 50_000, caller="w0",
                flags={"tenant": "t0"},
            )

    system.kernel.run_until(system.kernel.process(seed()))
    injector = FaultInjector(
        system,
        FaultSchedule(
            [
                FaultEvent(at=5.0, kind="crash", node="w1"),
                FaultEvent(at=20.0, kind="restart", node="w1"),
            ]
        ),
    )
    assert injector.backend is backend
    assert backend.faults is injector.state
    injector.start()
    system.kernel.run(until=40.0)
    assert injector.stats.crashes == 1
    assert injector.stats.restarts == 1
    snap = backend.stats_snapshot()
    assert snap["live_servers"] == len(NODES)
    # Whatever survived must still be readable end-to-end.
    survivors = [key for key, _ in ((o.key, n) for n, o in backend.objects())]
    for key in survivors:
        def check(key=key):
            obj = yield from backend.get(key, caller="w2")
            return obj

        obj = system.kernel.run_until(system.kernel.process(check()))
        assert obj.value is not None


EPISODES = {
    "rsds_outage": FaultEvent(at=6.0, kind="rsds_outage", duration=10.0),
    "rsds_brownout": FaultEvent(
        at=6.0, kind="rsds_brownout", duration=10.0, scale=4.0
    ),
    "slow_network": FaultEvent(
        at=6.0, kind="slow_network", duration=10.0, scale=3.0
    ),
}


@pytest.mark.parametrize("episode", sorted(EPISODES), ids=sorted(EPISODES))
def test_episode_survival_keeps_acked_writes(backend_name, episode):
    """Every backend survives an RSDS outage / brownout / slow-network
    episode end-to-end: writes acked through the data-client seam while
    the episode is active must all read back with payload identity."""
    from repro.storage.errors import StoreUnavailable

    config = _config()
    config.cache_backend = backend_name
    system = OFCPlatform(
        config=config,
        platform_config=PlatformConfig(
            node_ids=list(NODES), node_memory_mb=4096
        ),
        seed=11,
    )
    system.store.create_bucket("inputs")
    system.store.create_bucket("outputs")
    system.start()
    if backend_name == "ofc":
        for node in NODES:
            system.backend.server(node).resize(64 * MB)

    injector = FaultInjector(system, FaultSchedule([EPISODES[episode]]))
    injector.start()
    record_stub = type("R", (), {"should_cache": True})()
    writer_client = system._make_data_client(
        system.platform.invokers[0], record_stub
    )
    acked = {}

    def writer():
        for i in range(12):
            payload = f"payload-{i}".encode()
            try:
                yield from writer_client.write(
                    "outputs", f"o{i}", payload, 50_000
                )
                acked[f"o{i}"] = payload
            except StoreUnavailable:
                pass  # unacked: the platform may legitimately drop it
            yield 2.0

    system.kernel.run_until(system.kernel.process(writer()))
    # The cache absorbs all three episode kinds: outage writes skip the
    # RSDS shadow and buffer write-back, brownouts/slow networks only
    # degrade latency.  Every write acks.
    assert len(acked) == 12
    # Settle well past the episode end and the persistor retry budget.
    system.kernel.run(until=system.kernel.now + 30.0)

    reader_client = system._make_data_client(
        system.platform.invokers[1], record_stub
    )
    for name in sorted(acked):
        def check(name=name):
            obj = yield from reader_client.read("outputs", name)
            return obj

        obj = system.kernel.run_until(system.kernel.process(check()))
        assert obj.payload is acked[name], f"acked write {name} lost"


# -- observability ----------------------------------------------------------


def test_stats_snapshot_shape(backend_name):
    kernel, backend = build(backend_name)
    snap = backend.stats_snapshot()
    assert isinstance(snap, dict)
    # The availability keys every backend reports under one name (the
    # grid's timeline and its lost-objects column read them).
    assert snap["live_servers"] == len(NODES)
    assert snap["under_replicated"] == 0
    assert snap["lost_objects"] == 0
    for value in snap.values():
        assert isinstance(value, (int, float))


def test_cost_snapshot_shape(backend_name):
    kernel, backend = build(backend_name)

    def scenario():
        yield from backend.put("a/k", "v", 1000, caller="w0")

    drive(kernel, scenario())
    kernel.run(until=kernel.now + 30.0)
    snap = backend.cost_snapshot()
    assert snap["backend"] == backend_name
    assert snap["cost_units"] >= 0.0
    for field in (
        "dedicated_mb_s",
        "harvested_mb_s",
        "lambda_invocations",
        "backup_ops",
    ):
        assert field in snap
    # Provisioned memory accrues cost over time for every architecture.
    assert snap["dedicated_mb_s"] + snap["harvested_mb_s"] > 0.0
