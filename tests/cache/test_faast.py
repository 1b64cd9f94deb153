"""Faa$T backend specifics: per-app sharding, autoscaling, teardown."""

import pytest

from repro.cache import make_backend
from repro.cache.faast import SHARED_APP
from repro.core.config import OFCConfig
from repro.kvcache.errors import CapacityExceeded, NoSuchKey
from repro.sim import Kernel
from repro.sim.latency import MB

NODES = ["w0", "w1", "w2"]


def build(**overrides):
    config = OFCConfig(
        faast_shard_mb=1.0,
        faast_max_shards_per_app=4,
        faast_scale_period_s=10.0,
        faast_ops_per_shard=50,
        faast_idle_periods=2,
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    kernel = Kernel()
    backend = make_backend("faast", kernel, NODES, config=config)
    backend.start()
    return kernel, backend


def drive(kernel, gen):
    return kernel.run_until(kernel.process(gen))


def test_apps_get_isolated_caches():
    kernel, backend = build()

    def scenario():
        yield from backend.put(
            "a/k1", "v", 1000, caller="w0", flags={"tenant": "t1"}
        )
        yield from backend.put(
            "b/k2", "v", 1000, caller="w0", flags={"tenant": "t2"}
        )
        yield from backend.put("c/k3", "v", 1000, caller="w0")

    drive(kernel, scenario())
    assert set(backend._apps) == {"t1", "t2", SHARED_APP}
    assert backend.stats_snapshot()["apps"] == 3


def test_hot_app_scales_out():
    kernel, backend = build()

    def traffic():
        yield from backend.put(
            "a/k", "v", 1000, caller="w0", flags={"tenant": "t1"}
        )
        for _ in range(120):  # >> ops_per_shard in one window
            yield from backend.get("a/k", caller="w1")

    drive(kernel, traffic())
    kernel.run(until=kernel.now + 15.0)  # one scaling period
    assert backend.stats.scale_outs > 0
    assert len(backend._apps["t1"].shards) > 1


def test_idle_app_torn_down_after_hysteresis():
    kernel, backend = build()

    def scenario():
        yield from backend.put(
            "a/k", "v", 1000, caller="w0", flags={"tenant": "t1"}
        )
        yield from backend.delete("a/k", caller="w0")

    drive(kernel, scenario())
    assert "t1" in backend._apps
    kernel.run(until=kernel.now + 35.0)  # >= idle_periods scaling periods
    assert "t1" not in backend._apps
    assert backend.stats.apps_torn_down == 1
    assert backend.total_capacity == 0  # cost meter back to zero memory


def test_working_set_survives_rescale():
    """The stable key->shard index must keep every key readable while
    the fleet grows."""
    kernel, backend = build()
    keys = [f"a/k{i}" for i in range(20)]

    def traffic():
        for key in keys:
            yield from backend.put(
                key, key, 40_000, caller="w0", flags={"tenant": "t1"}
            )
        for _ in range(6):
            for key in keys:
                yield from backend.get(key, caller="w0")

    drive(kernel, traffic())
    kernel.run(until=kernel.now + 25.0)

    def readback():
        values = []
        for key in keys:
            obj = yield from backend.get(key, caller="w1")
            values.append(obj.value)
        return values

    assert drive(kernel, readback()) == keys


def test_dirty_objects_never_evicted():
    kernel, backend = build(faast_max_shards_per_app=1)

    def scenario():
        # Fill the single 1 MB shard with dirty data, then try more.
        for i in range(4):
            yield from backend.put(
                f"a/d{i}", "v", 250_000, caller="w0",
                flags={"tenant": "t1", "dirty": True},
            )
        yield from backend.put(
            "a/overflow", "v", 250_000, caller="w0",
            flags={"tenant": "t1", "dirty": True},
        )

    with pytest.raises(CapacityExceeded):
        drive(kernel, scenario())
    for i in range(4):
        assert backend.contains(f"a/d{i}")
    assert backend.stats.evictions == 0


def test_clean_lru_evicted_under_pressure():
    kernel, backend = build(faast_max_shards_per_app=1)

    def scenario():
        for i in range(5):  # 5 x 250 kB into a 1 MB shard
            yield from backend.put(
                f"a/c{i}", "v", 250_000, caller="w0",
                flags={"tenant": "t1"},
            )

    drive(kernel, scenario())
    assert backend.stats.evictions >= 1
    assert backend.total_used <= backend.total_capacity
    assert not backend.contains("a/c0")  # the LRU victim
    assert backend.contains("a/c4")


def test_crash_drops_shards_and_recover_reprovisions():
    """Pre-fix mode (replication off): a crash loses the shard."""
    kernel, backend = build(
        faast_max_shards_per_app=1, faast_replication=False
    )

    def seed():
        yield from backend.put(
            "a/k", "v", 1000, caller="w0", flags={"tenant": "t1"}
        )

    drive(kernel, seed())
    victim = backend.location_of("a/k")
    backend.crash(victim)
    assert backend.peek("a/k") is None  # no replication: contents gone
    assert backend.stats.shards_lost == 1
    assert backend.stats.lost_objects == 1

    def recover():
        recovered = yield from backend.recover(victim)
        return recovered

    assert drive(kernel, recover()) == 0  # nothing readable again
    shard = backend._apps["t1"].shards[0]  # but the bare app got a shard
    assert shard.node_id != victim  # victim still down

    def miss():
        yield from backend.get("a/k", caller="w0")

    with pytest.raises(NoSuchKey):
        drive(kernel, miss())
    backend.restart(victim)
    assert backend.stats_snapshot()["live_servers"] == len(NODES)


def test_crash_promotes_backup_shard():
    """With replication on, the mirror takes over and no object is
    lost; repair re-creates the missing mirror."""
    kernel, backend = build(faast_max_shards_per_app=1)

    def seed():
        yield from backend.put(
            "a/k", "v", 1000, caller="w0",
            flags={"tenant": "t1", "dirty": True},
        )

    drive(kernel, seed())
    assert backend.stats.backup_writes == 1
    victim = backend.location_of("a/k")
    shard = backend._apps["t1"].shards[0]
    backup = shard.backup_node
    assert backup is not None and backup != victim

    backend.crash(victim)
    assert backend.stats.shards_lost == 0
    assert backend.stats.lost_objects == 0
    assert backend.stats.shards_promoted == 1
    assert backend.location_of("a/k") == backup
    assert backend.peek("a/k").value == "v"
    assert backend.stats_snapshot()["under_replicated"] == 1

    def recover_repair():
        recovered = yield from backend.recover(victim)
        repaired = yield from backend.repair()
        return recovered, repaired

    recovered, repaired = drive(kernel, recover_repair())
    assert recovered == 1  # the promoted object
    assert repaired == 1  # mirror re-created on a surviving node
    assert backend.stats_snapshot()["under_replicated"] == 0
    assert shard.backup_node not in (None, backup and victim)

    def read():
        obj = yield from backend.get("a/k", caller="w2")
        return obj

    assert drive(kernel, read()).value == "v"
    backend.restart(victim)
    assert backend.stats_snapshot()["live_servers"] == len(NODES)


def test_backup_node_death_leaves_primary_and_repair_rehomes():
    kernel, backend = build(faast_max_shards_per_app=1)

    def seed():
        yield from backend.put(
            "a/k", "v", 1000, caller="w0", flags={"tenant": "t1"}
        )

    drive(kernel, seed())
    shard = backend._apps["t1"].shards[0]
    primary, backup = shard.node_id, shard.backup_node
    backend.crash(backup)
    # Primary unaffected, but the shard is now under-replicated.
    assert backend.location_of("a/k") == primary
    assert shard.backup_node is None
    assert backend.stats_snapshot()["under_replicated"] == 1

    def repair():
        return (yield from backend.repair())

    assert drive(kernel, repair()) == 1
    assert shard.backup_node is not None
    assert shard.backup_node not in (primary, backup)
    assert backend.stats_snapshot()["under_replicated"] == 0


def test_oversized_for_shard_rejected():
    kernel, backend = build()

    def scenario():
        yield from backend.put("a/k", "v", int(1.5 * MB), caller="w0")

    from repro.kvcache.errors import ObjectTooLarge

    with pytest.raises(ObjectTooLarge):
        drive(kernel, scenario())
