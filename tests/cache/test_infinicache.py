"""InfiniCache backend specifics: erasure coding, reclamation, backups."""

import pytest

from repro.cache import make_backend
from repro.core.config import OFCConfig
from repro.kvcache.errors import CapacityExceeded, NoSuchKey
from repro.sim import Kernel
from repro.sim.latency import MB
from tests.cache.test_backend_machine import KEYS, replay

NODES = ["w0", "w1", "w2"]


def build(**overrides):
    config = OFCConfig(
        infinicache_data_chunks=2,
        infinicache_parity_chunks=1,
        infinicache_lambda_mb=1.0,
        infinicache_lambdas_per_node=2,
        infinicache_lifetime_s=100.0,
        infinicache_reclaim_period_s=10.0,
        infinicache_backup_period_s=5.0,
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    kernel = Kernel()
    backend = make_backend("infinicache", kernel, NODES, config=config)
    backend.start()
    return kernel, backend


def drive(kernel, gen):
    return kernel.run_until(kernel.process(gen))


def test_chunks_spread_over_distinct_sandboxes_and_nodes():
    kernel, backend = build()

    def scenario():
        yield from backend.put("a/k", "v", 600_000, caller="w0")

    drive(kernel, scenario())
    placement = backend._placement["a/k"]
    assert len(placement) == 3  # k + r
    assert len(set(placement)) == 3
    # Three chunks over three nodes: distinct-nodes-first placement.
    assert len({s.node_id for s in placement}) == 3
    # 600 kB over k=2 data chunks -> 300 kB per chunk, on k+r sandboxes.
    assert backend.total_used == 3 * 300_000


def test_sandbox_pool_priced_as_dedicated_lambda_memory():
    kernel, backend = build()
    assert backend.total_capacity == len(NODES) * 2 * MB
    kernel.run(until=10.0)
    snap = backend.cost_snapshot()
    assert snap["dedicated_mb_s"] > 0.0
    assert snap["harvested_mb_s"] == 0.0
    # The initial pool spawn is 6 lambda invocations.
    assert snap["lambda_invocations"] >= 6


def test_reclamation_warms_up_from_backup():
    """A backed-up object must survive losing > r chunks: the reclaim
    loop restores it from the store copy (a warm-up, not a miss)."""
    kernel, backend = build()

    def seed():
        yield from backend.put("a/k", "v", 100_000, caller="w0")

    drive(kernel, seed())
    # Let the backup loop copy it, then forcibly expire every sandbox.
    kernel.run(until=kernel.now + 6.0)
    assert backend.stats.backups == 1
    for sandbox in backend._sandboxes:
        sandbox.lifetime_s = 0.0
    kernel.run(until=kernel.now + 12.0)  # one reclaim period
    assert backend.stats.reclamations >= 6
    assert backend.stats.warmups >= 1
    assert backend.stats.lost_objects == 0

    def read():
        obj = yield from backend.get("a/k", caller="w1")
        return obj

    obj = drive(kernel, read())
    assert obj.value == "v"
    assert obj.version == 1


def test_unbacked_object_lost_when_chunks_fall_below_k():
    kernel, backend = build(infinicache_backup_period_s=10_000.0)

    def seed():
        yield from backend.put("a/k", "v", 100_000, caller="w0")

    drive(kernel, seed())
    for sandbox in backend._sandboxes:
        sandbox.lifetime_s = 0.0
    kernel.run(until=kernel.now + 12.0)
    assert backend.stats.lost_objects == 1
    assert backend.peek("a/k") is None


def test_partial_loss_reencodes_without_backup():
    """Losing <= r chunks is repaired from surviving chunks alone."""
    kernel, backend = build(infinicache_backup_period_s=10_000.0)

    def seed():
        yield from backend.put("a/k", "v", 100_000, caller="w0")

    drive(kernel, seed())
    victim = backend._placement["a/k"][2]  # one of k+r=3 chunks
    victim.lifetime_s = 0.0
    kernel.run(until=kernel.now + 12.0)
    assert backend.stats.reencodes == 1
    assert backend.stats.lost_objects == 0
    assert len(backend._placement["a/k"]) == 3  # redundancy restored


def test_restore_never_resurrects_stale_dirty_flag():
    kernel, backend = build()

    def seed():
        yield from backend.put(
            "a/k", "v", 100_000, caller="w0", flags={"dirty": True}
        )

    drive(kernel, seed())
    kernel.run(until=kernel.now + 6.0)  # backup copies dirty=True
    backend.set_flags("a/k", dirty=False)  # persist completed
    for sandbox in backend._sandboxes:
        sandbox.lifetime_s = 0.0
    kernel.run(until=kernel.now + 12.0)  # full warm-up from backup
    assert backend.stats.warmups >= 1
    obj = backend.peek("a/k")
    assert obj is not None
    assert obj.flags["dirty"] is False


def test_crash_degrades_then_recover_restores():
    kernel, backend = build()

    def seed():
        yield from backend.put("a/k", "v", 100_000, caller="w0")

    drive(kernel, seed())
    kernel.run(until=kernel.now + 6.0)  # backed up
    # Crash two of three nodes: at most one chunk survives (< k).
    backend.crash("w0")
    backend.crash("w1")
    assert "a/k" in backend._degraded
    assert backend.peek("a/k") is None  # unreadable while degraded

    def recover():
        a = yield from backend.recover("w0")
        b = yield from backend.recover("w1")
        return a + b

    # Only w2's sandboxes are up: recovery can place at most 2 distinct
    # chunks (k), enough to read but not to reach full k+r redundancy.
    recovered = drive(kernel, recover())
    assert recovered >= 1
    assert backend.peek("a/k") is not None
    backend.restart("w0")
    backend.restart("w1")

    def repair():
        return (yield from backend.repair())

    assert drive(kernel, repair()) == 1
    assert backend.stats_snapshot()["under_replicated"] == 0


def test_capacity_pressure_evicts_clean_lru_only():
    kernel, backend = build(infinicache_backup_period_s=10_000.0)

    def scenario():
        # Each put takes k+r x 500 kB = 1.5 MB of the 6 MB pool.
        yield from backend.put(
            "a/dirty", "v", 1_000_000, caller="w0", flags={"dirty": True}
        )
        for i in range(4):
            yield from backend.put(f"a/c{i}", "v", 1_000_000, caller="w0")

    drive(kernel, scenario())
    assert backend.stats.evictions >= 1
    assert backend.contains("a/dirty")  # dirty data never evicted
    assert not backend.contains("a/c0")  # clean LRU victim


def test_all_dirty_pool_rejects_new_writes():
    kernel, backend = build(infinicache_backup_period_s=10_000.0)

    def scenario():
        for i in range(4):
            yield from backend.put(
                f"a/d{i}", "v", 1_000_000, caller="w0",
                flags={"dirty": True},
            )
        yield from backend.put(
            "a/more", "v", 1_000_000, caller="w0", flags={"dirty": True}
        )

    with pytest.raises(CapacityExceeded):
        drive(kernel, scenario())


def test_get_requires_k_live_chunks():
    kernel, backend = build(infinicache_backup_period_s=10_000.0)

    def seed():
        yield from backend.put("a/k", "v", 100_000, caller="w0")

    drive(kernel, seed())
    placement = list(backend._placement["a/k"])
    backend._kill(placement[0])
    backend._kill(placement[1])  # 1 live chunk < k=2

    def read():
        yield from backend.get("a/k", caller="w0")

    with pytest.raises(NoSuchKey):
        drive(kernel, read())
    assert backend.stats.misses == 1


def test_dirty_put_backed_up_promptly():
    """Chaos-harness fix: a dirty (write-back) put is backed up to the
    store area immediately, not on the next periodic backup tick —
    otherwise losing chunks below k inside the 5 s window loses an
    acked write."""
    kernel, backend = build()

    def seed():
        yield from backend.put(
            "a/d", "v", 100_000, caller="w0", flags={"dirty": True}
        )

    drive(kernel, seed())
    # No backup period has elapsed; the prompt backup already exists.
    assert backend.stats.backups == 1
    assert "a/d" in backend._backup

    # Expire every sandbox before the first periodic backup would have
    # run: the reclaim warm-up restores from the prompt backup.
    for sandbox in backend._sandboxes:
        sandbox.lifetime_s = 0.0
    kernel.run(until=kernel.now + 12.0)
    assert backend.stats.lost_objects == 0
    assert backend.stats.warmups >= 1

    def read():
        obj = yield from backend.get("a/d", caller="w1")
        return obj

    obj = drive(kernel, read())
    assert obj.value == "v"
    assert obj.flags["dirty"] is True


def test_dirty_without_backup_retained_not_dropped():
    """Chaos-harness fix: when chunks fall below k and no usable backup
    exists, a dirty entry is retained (unreadable but tracked) instead
    of forgotten — the store has never seen the payload."""
    kernel, backend = build()

    def seed():
        yield from backend.put("a/k", "v", 100_000, caller="w0")

    drive(kernel, seed())
    backend.set_flags("a/k", dirty=True)  # dirtied before any backup tick
    assert "a/k" not in backend._backup
    # Two of three nodes down: one live chunk < k=2, no backup.
    backend.crash("w0")
    backend.crash("w1")

    def recover():
        a = yield from backend.recover("w0")
        b = yield from backend.recover("w1")
        return a + b

    drive(kernel, recover())
    assert backend.stats.dirty_retained >= 1
    assert backend.stats.lost_objects == 0
    assert "a/k" in backend._entries  # retained, not forgotten
    assert "a/k" in backend._degraded

    # Once the nodes return, the backup loop copies the retained entry
    # out and the next reclaim tick warms it back up: readable again.
    backend.restart("w0")
    backend.restart("w1")
    kernel.run(until=kernel.now + 20.0)

    def read():
        obj = yield from backend.get("a/k", caller="w2")
        return obj

    obj = drive(kernel, read())
    assert obj.value == "v"
    assert backend.stats.lost_objects == 0


#: Data-plane ops racing the warm-up that follows a reclamation: each
#: lifetime-30 s sandbox (one per node) expires at the t = 30 s reclaim
#: tick, taking every stripe placed on them below k, and the warm-ups
#: yield while ops land.  Found by the contract machine; each step list
#: is replayed through it, its loss model the assertion.
WARM_UP_RACES = {
    # The fetched backup was restored over a delete.
    "delete-during-warm-up": [
        ("put", "a/k1", 1 * MB, "w0", "t0", False),
        ("advance", 30.0),
        ("delete", "a/k1", "w0"),
    ],
    # The fetched backup was restored over a newer write.
    "overwrite-during-warm-up": [
        ("put", "a/k2", 1 * MB, "w0", "t0", False),
        ("advance", 30.0),
        ("put", "a/k2", 100_000, "w0", "t0", False),
    ],
    # A put whose every chunk is reclaimed mid-upload (IndexError).
    "put-reclaimed-mid-upload": [
        ("put", "a/k0", 2 * MB, "w0", "t0", False),
        ("put", "a/k1", 100_000, "w0", "t0", False),
        ("put", "a/k2", 100_000, "w0", "t0", False),
        ("advance", 40.0),
        ("delete", "a/k0", "w0"),
        ("put", "a/k0", 100_000, "w0", "t0", False),
        ("put", "a/k1", 100_000, "w0", "t0", False),
    ],
    # Chunks uploaded one by one onto sandboxes a crash had killed.
    "crash-during-warm-up": [
        *[("put", key, 100_000, "w0", "t0", False) for key in KEYS],
        ("advance", 30.0),
        ("crash", "a/k0", "w0"),
        ("recover",),
        ("restart",),
        ("crash", "a/k2", "w0"),
    ],
    # A recovery running beside the warm-up left a dirty key unread.
    "recover-during-warm-up": [
        ("put", "a/k0", 100_000, "w0", "t0", False),
        ("put", "a/k1", 100_000, "w0", "t0", False),
        ("put", "a/k2", 1 * MB, "w0", "t0", False),
        ("advance", 30.0),
        ("crash", "a/k0", "w0"),
        ("recover",),
        ("restart",),
        ("crash", "a/k2", "w0"),
        ("put", "a/k2", 100_000, "w0", "t0", True),
        ("recover",),
    ],
}


@pytest.mark.parametrize("steps", WARM_UP_RACES.values(), ids=WARM_UP_RACES)
def test_warm_up_races_keep_the_contract(steps):
    replay("infinicache", *steps)


def test_warm_up_evicts_clean_entries_to_restore_a_dirty_one():
    """A dirty entry below k chunks, its backup fetched, in a full pool:
    the warm-up makes room out of clean entries, as a put does, rather
    than leaving write-back data unreadable (found by the contract
    machine: a clean put during a crash had taken the room)."""
    kernel, backend = build(infinicache_backup_period_s=10_000.0)

    def seed():
        yield from backend.put(
            "a/d", "v", 1 * MB, caller="w0", flags={"dirty": True}
        )
        for i in range(3):
            yield from backend.put(f"a/c{i}", "v", 1 * MB, caller="w0")

    drive(kernel, seed())
    assert backend.total_used == backend.total_capacity
    for sandbox in backend._placement["a/d"][:2]:
        backend._kill(sandbox)
    drive(kernel, backend._restore_or_drop("a/d"))
    assert backend.peek("a/d") is not None
    assert backend.stats.evictions >= 1
    assert backend.stats.dirty_retained == 0
