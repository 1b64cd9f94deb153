"""Regression tests for the cache failure-path consistency fixes.

Each test pins one of the crash-consistency bugs fixed alongside the
fault-injection subsystem:

1. ``set_flags`` only mutated the master copy — a post-crash promotion
   resurrected stale flags (a cleared ``dirty`` re-triggered the
   write-back, a set ``dirty`` was lost entirely);
2. a ``put`` to a key whose master died restarted the version at 1,
   making ``persist_payload``'s ordering treat newer data as stale;
3. ``restart()`` kept stale disk backups for keys re-placed while the
   node was down — a promotion could resurrect deleted/old data;
4. ``put`` silently dropped down backups and nothing ever restored the
   replication factor.
"""

import pytest

from repro.kvcache import CacheCluster, NoSuchKey
from repro.kvcache.errors import ServerDown
from repro.sim import Kernel
from repro.sim.latency import MB

NODES = ["w0", "w1", "w2", "w3"]


@pytest.fixture()
def env():
    kernel = Kernel()
    cluster = CacheCluster(kernel, NODES, replication_factor=2)
    for node in NODES:
        cluster.server(node).resize(64 * MB)
    return kernel, cluster


def run(kernel, gen):
    return kernel.run_process(gen)


# -- satellite 1: flag propagation ----------------------------------------


def test_set_flags_propagates_to_backups(env):
    kernel, cluster = env

    def scenario():
        yield from cluster.put("k", "v", 1000, caller="w0", flags={"dirty": True})

    run(kernel, scenario())
    cluster.set_flags("k", dirty=False)
    for backup_id in cluster.coordinator.backups_of("k"):
        copy = cluster.server(backup_id).backup_peek("k")
        assert copy.flags["dirty"] is False


def test_promoted_copy_sees_cleared_dirty_flag(env):
    kernel, cluster = env

    def scenario():
        yield from cluster.put("k", "v", 1000, caller="w0", flags={"dirty": True})

    run(kernel, scenario())
    cluster.set_flags("k", dirty=False)  # the persist completed
    cluster.crash("w0")
    run(kernel, cluster.recover("w0"))
    promoted = cluster.peek("k")
    assert promoted is not None
    # Without propagation the promotion resurrects dirty=True and the
    # (already completed) write-back fires again.
    assert promoted.flags["dirty"] is False


def test_set_flags_lands_on_backups_after_master_crash(env):
    kernel, cluster = env

    def scenario():
        yield from cluster.put("k", "v", 1000, caller="w0", flags={"dirty": True})

    run(kernel, scenario())
    cluster.crash("w0")
    # The persistor finishing between crash and recovery must not lose
    # its completion: it lands on the surviving replicas.
    cluster.set_flags("k", dirty=False)
    run(kernel, cluster.recover("w0"))
    assert cluster.peek("k").flags["dirty"] is False


def test_set_flags_unknown_key_still_raises(env):
    kernel, cluster = env
    with pytest.raises(NoSuchKey):
        cluster.set_flags("ghost", dirty=False)


# -- satellite 2: version seeding after master loss -----------------------


def test_put_after_master_crash_continues_version_sequence(env):
    kernel, cluster = env

    def scenario():
        yield from cluster.put("k", "v1", 1000, caller="w0")
        yield from cluster.put("k", "v2", 1000, caller="w0")  # version 2
        cluster.crash("w0")
        # Re-put before any recovery ran: the master copy is gone but
        # the version sequence must continue past the surviving copies.
        yield from cluster.put("k", "v3", 1000, caller="w3")
        return cluster.peek("k").version

    assert run(kernel, scenario()) == 3


def test_put_version_survives_total_copy_loss(env):
    kernel, cluster = env

    def scenario():
        yield from cluster.put("k", "v1", 1000, caller="w0")
        yield from cluster.put("k", "v2", 1000, caller="w0")
        cluster.crash("w0")
        for backup_id in list(cluster.coordinator.backups_of("k")):
            cluster.crash(backup_id)
        # Every copy is gone; only the coordinator's version record
        # survives, and it must still seed the next version.
        yield from cluster.put("k", "v3", 1000, caller="w3")
        return cluster.peek("k").version

    assert run(kernel, scenario()) == 3


def test_put_to_master_with_stale_disk_backup_drops_it(env):
    kernel, cluster = env

    def scenario():
        yield from cluster.put("k", "v1", 1000, caller="w0")
        cluster.crash("w0")
        backup_id = sorted(cluster.coordinator.backups_of("k"))[0]
        # The backup node becomes the new master via a plain re-put: its
        # stale disk copy must be dropped, not kept for promotion.
        yield from cluster.put("k", "v2", 1000, caller=backup_id)
        return backup_id

    backup_id = run(kernel, scenario())
    assert cluster.location_of("k") == backup_id
    assert not cluster.server(backup_id).backup_has("k")
    assert cluster.peek("k").version == 2


# -- satellite 3: restart purges stale backups ----------------------------


def test_restart_purges_backups_of_deleted_keys(env):
    kernel, cluster = env

    def scenario():
        yield from cluster.put("k", "v", 1000, caller="w0")
        backup_id = sorted(cluster.coordinator.backups_of("k"))[0]
        cluster.crash(backup_id)
        yield from cluster.delete("k", caller="w0")  # down node keeps its copy
        return backup_id

    backup_id = run(kernel, scenario())
    assert cluster.server(backup_id)._backup  # the stale copy survived
    purged = cluster.restart(backup_id)
    assert purged == 1
    assert not cluster.server(backup_id).backup_has("k")
    assert cluster.stats.backups_purged == 1
    assert cluster.stats.restarts == 1


def test_restart_purges_backups_of_replaced_keys(env):
    kernel, cluster = env

    def scenario():
        yield from cluster.put("k", "v1", 1000, caller="w0")
        backup_id = sorted(cluster.coordinator.backups_of("k"))[0]
        cluster.crash(backup_id)
        # Update while the backup node is down, then repair: the
        # placement moves to other nodes.
        yield from cluster.put("k", "v2", 1000, caller="w0")
        yield from cluster.repair()
        return backup_id

    backup_id = run(kernel, scenario())
    assert backup_id not in cluster.coordinator.backups_of("k")
    cluster.restart(backup_id)
    # The stale v1 disk copy is gone; it can never be promoted.
    assert not cluster.server(backup_id).backup_has("k")


def test_restart_keeps_backups_still_referenced(env):
    kernel, cluster = env

    def scenario():
        yield from cluster.put("k", "v", 1000, caller="w0")

    run(kernel, scenario())
    backup_id = sorted(cluster.coordinator.backups_of("k"))[0]
    cluster.crash(backup_id)
    purged = cluster.restart(backup_id)
    # The placement still lists this node: the copy stays.
    assert purged == 0
    assert cluster.server(backup_id).backup_has("k")


# -- satellite 4: under-replication tracking + repair ---------------------


def test_put_with_down_backup_marks_under_replicated(env):
    kernel, cluster = env

    def scenario():
        yield from cluster.put("k", "v1", 1000, caller="w0")
        for backup_id in list(cluster.coordinator.backups_of("k")):
            cluster.crash(backup_id)
        yield from cluster.put("k", "v2", 1000, caller="w0")

    run(kernel, scenario())
    assert "k" in cluster.under_replicated_keys
    assert cluster.stats.under_replication_events >= 1
    snap = cluster.stats_snapshot()
    assert snap["under_replicated"] == 1
    assert snap["live_servers"] == 2


def test_crash_marks_backed_keys_under_replicated(env):
    kernel, cluster = env

    def scenario():
        yield from cluster.put("k", "v", 1000, caller="w0")

    run(kernel, scenario())
    backup_id = sorted(cluster.coordinator.backups_of("k"))[0]
    cluster.crash(backup_id)
    assert "k" in cluster.under_replicated_keys


def test_repair_restores_replication_factor(env):
    kernel, cluster = env

    def scenario():
        yield from cluster.put("k", "v", 1000, caller="w0")
        backup_id = sorted(cluster.coordinator.backups_of("k"))[0]
        cluster.crash(backup_id)
        repaired = yield from cluster.repair()
        return repaired

    repaired = run(kernel, scenario())
    assert repaired == 1
    assert "k" not in cluster.under_replicated_keys
    backups = cluster.coordinator.backups_of("k")
    assert len(backups) == 2
    for backup_id in backups:
        assert cluster.server(backup_id).backup_has("k")
    assert cluster.stats.repaired_objects == 1


def test_repair_waits_until_capacity_returns(env):
    kernel, cluster = env

    def scenario():
        yield from cluster.put("k", "v", 1000, caller="w0")
        # Lose BOTH spare nodes: no candidate can take the replica.
        backups = sorted(cluster.coordinator.backups_of("k"))
        cluster.crash(backups[0])
        spare = next(
            n for n in NODES if n != "w0" and n not in backups
        )
        cluster.crash(spare)
        repaired_now = yield from cluster.repair()
        cluster.restart(spare)
        repaired_later = yield from cluster.repair()
        return repaired_now, repaired_later

    repaired_now, repaired_later = run(kernel, scenario())
    assert repaired_now == 0
    assert repaired_later == 1
    assert len(cluster.coordinator.backups_of("k")) == 2


# -- failure-path hardening ------------------------------------------------


def test_migrate_master_of_crashed_master_raises_nosuchkey(env):
    kernel, cluster = env

    def scenario():
        yield from cluster.put("k", "v", 1000, caller="w0")
        cluster.crash("w0")
        yield from cluster.migrate_master("k")

    # ServerDown must never leak out of the migration path.
    with pytest.raises(NoSuchKey):
        run(kernel, scenario())


def test_recover_promotes_highest_surviving_version(env):
    kernel, cluster = env

    def scenario():
        yield from cluster.put("k", "v1", 1000, caller="w0")
        yield from cluster.put("k", "v2", 1000, caller="w0")

    run(kernel, scenario())
    backups = sorted(cluster.coordinator.backups_of("k"))
    # Regress one replica to simulate a copy that missed an update.  A
    # put's backups share one replica (a value), so the stale copy is a
    # new object on that one server.
    server = cluster.server(backups[0])
    stale = server._backup["k"].replica()
    stale.version = 1
    server.backup_replace(stale)
    cluster.crash("w0")
    run(kernel, cluster.recover("w0"))
    assert cluster.peek("k").version == 2


def test_recover_tolerates_second_crash_mid_recovery(env):
    kernel, cluster = env

    def scenario():
        yield from cluster.put("k", "v", 1000, caller="w0")
        backups = sorted(cluster.coordinator.backups_of("k"))
        cluster.crash("w0")
        recovery = kernel.process(cluster.recover("w0"))
        # Let the recovery pass its candidate check and start the disk
        # read, then fail the survivors while the read is in flight (no
        # ServerDown may escape; the key is simply lost).
        yield 1e-9
        for backup_id in backups:
            cluster.crash(backup_id)
        yield recovery
        return recovery.value

    recovered = run(kernel, scenario())
    assert recovered == 0
    assert cluster.stats.lost_objects == 1
    assert not cluster.contains("k")


def test_server_down_still_raised_for_direct_access(env):
    kernel, cluster = env
    cluster.crash("w0")
    with pytest.raises(ServerDown):
        cluster.server("w0").master_get("anything")
