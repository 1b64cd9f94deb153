"""Integration tests for the distributed cache cluster."""

import pytest

from repro.kvcache import CacheCluster, CapacityExceeded, NoSuchKey, ObjectTooLarge
from repro.kvcache.log import SEGMENT_SIZE
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


def test_put_prefers_caller_node(env):
    kernel, cluster = env

    def scenario():
        master = yield from cluster.put("k", "v", 1000, caller="w2")
        return master

    assert run(kernel, scenario()) == "w2"
    assert cluster.location_of("k") == "w2"


def test_put_replicates_to_backups(env):
    kernel, cluster = env

    def scenario():
        yield from cluster.put("k", "v", 1000, caller="w0")

    run(kernel, scenario())
    backups = cluster.coordinator.backups_of("k")
    assert len(backups) == 2
    assert "w0" not in backups
    for backup_id in backups:
        assert cluster.server(backup_id).backup_has("k")


def test_get_local_faster_than_remote(env):
    kernel, cluster = env
    cluster.rng = None

    def scenario():
        yield from cluster.put("k", "v", 100_000, caller="w0")
        t0 = kernel.now
        yield from cluster.get("k", caller="w0")
        local = kernel.now - t0
        t1 = kernel.now
        yield from cluster.get("k", caller="w1")
        remote = kernel.now - t1
        return local, remote

    local, remote = run(kernel, scenario())
    assert remote > 10 * local
    assert cluster.stats.gets_local == 1
    assert cluster.stats.gets_remote == 1


def test_get_missing_raises_and_counts_miss(env):
    kernel, cluster = env

    def scenario():
        yield from cluster.get("ghost", caller="w0")

    with pytest.raises(NoSuchKey):
        run(kernel, scenario())
    assert cluster.stats.misses == 1


def test_get_updates_access_tracking(env):
    kernel, cluster = env

    def scenario():
        yield from cluster.put("k", "v", 100, caller="w0")
        yield from cluster.get("k", caller="w0")
        yield from cluster.get("k", caller="w1")

    run(kernel, scenario())
    obj = cluster.peek("k")
    assert obj.n_access == 2
    assert obj.t_access == pytest.approx(kernel.now, abs=1.0)


def test_overwrite_bumps_version(env):
    kernel, cluster = env

    def scenario():
        yield from cluster.put("k", "v1", 100, caller="w0")
        yield from cluster.put("k", "v2", 150, caller="w0")

    run(kernel, scenario())
    obj = cluster.peek("k")
    assert obj.version == 2
    assert obj.value == "v2"
    assert obj.size == 150


def test_object_too_large_rejected(env):
    kernel, cluster = env

    def scenario():
        yield from cluster.put("k", "v", 11 * MB, caller="w0")

    with pytest.raises(ObjectTooLarge):
        run(kernel, scenario())


def test_capacity_exhausted_raises(env):
    kernel, cluster = env
    for node in NODES:
        cluster.server(node).resize(0)

    def scenario():
        yield from cluster.put("k", "v", 1000, caller="w0")

    with pytest.raises(CapacityExceeded):
        run(kernel, scenario())


def test_refused_overwrite_is_not_resurrected_by_recovery():
    """The master drops the old copy, then cannot fit the new one; the
    caller sends the new value to the RSDS.  The backups' old copies
    must go too, or recovery promotes the superseded value."""
    kernel = Kernel()
    cluster = CacheCluster(kernel, ["w0", "w1", "w2"], replication_factor=2)
    for node in ("w0", "w1", "w2"):
        cluster.server(node).resize(4 * MB)
    run(kernel, cluster.put("a/k", "old", 1 * MB, caller="w0"))
    run(kernel, cluster.put("a/fill", "x", 3 * MB, caller="w0"))
    with pytest.raises(CapacityExceeded):
        run(kernel, cluster.put("a/k", "new", 3 * MB, caller="w0"))
    assert not cluster.contains("a/k")
    assert not cluster.coordinator.holds("a/k")
    assert not any(cluster.server(n).backup_has("a/k") for n in ("w1", "w2"))
    cluster.crash("w0")
    run(kernel, cluster.recover("w0"))
    assert cluster.peek("a/k") is None
    with pytest.raises(NoSuchKey):
        run(kernel, cluster.get("a/k", caller="w1"))


def test_refused_put_while_the_master_is_down_drops_the_backups():
    """Same hazard with the master's node crashed: no survivor fits the
    new value, and the old one must not come back with recovery."""
    kernel = Kernel()
    cluster = CacheCluster(kernel, ["w0", "w1", "w2"], replication_factor=2)
    for node in ("w0", "w1", "w2"):
        cluster.server(node).resize(4 * MB)
    run(kernel, cluster.put("a/k", "old", 1 * MB, caller="w0"))
    run(kernel, cluster.put("a/f1", "x", 3 * MB, caller="w1"))
    run(kernel, cluster.put("a/f2", "x", 3 * MB, caller="w2"))
    cluster.crash("w0")
    with pytest.raises(CapacityExceeded):
        run(kernel, cluster.put("a/k", "new", 2 * MB, caller="w1"))
    run(kernel, cluster.recover("w0"))
    assert cluster.peek("a/k") is None


def test_put_spills_to_other_node_when_caller_full(env):
    kernel, cluster = env
    cluster.server("w0").resize(0)

    def scenario():
        master = yield from cluster.put("k", "v", 1000, caller="w0")
        return master

    master = run(kernel, scenario())
    assert master != "w0"


def test_delete_removes_all_copies(env):
    kernel, cluster = env

    def scenario():
        yield from cluster.put("k", "v", 1000, caller="w0")
        backups = cluster.coordinator.backups_of("k")
        yield from cluster.delete("k", caller="w0")
        return backups

    backups = run(kernel, scenario())
    assert not cluster.contains("k")
    for node in NODES:
        assert not cluster.server(node).master_has("k")
        assert not cluster.server(node).backup_has("k")
    assert backups  # sanity: there were backups before the delete


def test_set_flags(env):
    kernel, cluster = env

    def scenario():
        yield from cluster.put("k", "v", 100, caller="w0")

    run(kernel, scenario())
    cluster.set_flags("k", dirty=True)
    assert cluster.peek("k").flags["dirty"] is True
    with pytest.raises(NoSuchKey):
        cluster.set_flags("ghost", dirty=True)


def test_migrate_master_hands_off_to_backup(env):
    kernel, cluster = env

    def scenario():
        yield from cluster.put("k", "v", 1000, caller="w0")
        old_backups = cluster.coordinator.backups_of("k")
        new_master = yield from cluster.migrate_master("k")
        return old_backups, new_master

    old_backups, new_master = run(kernel, scenario())
    assert new_master in old_backups
    assert cluster.location_of("k") == new_master
    # Old master keeps an on-disk copy (it became a backup).
    assert cluster.server("w0").backup_has("k")
    assert not cluster.server("w0").master_has("k")
    # Value survived the hand-off.
    assert cluster.peek("k").value == "v"
    assert cluster.stats.migrations == 1


def test_migrate_master_with_no_viable_backup_returns_none(env):
    kernel, cluster = env

    def scenario():
        yield from cluster.put("k", "v", 1000, caller="w0")
        for node in NODES[1:]:
            cluster.server(node).crash()
        result = yield from cluster.migrate_master("k")
        return result

    assert run(kernel, scenario()) is None


def _put_backed_by_w1_w2(kernel, cluster):
    """Put ``k`` on w0; the two emptiest disks, w1 and w2, back it."""
    run(kernel, cluster.put("k", "v", 1000, caller="w0"))
    assert cluster.coordinator.backups_of("k") == {"w1", "w2"}


def _migrate(kernel, cluster, target=None):
    return run(kernel, cluster.migrate_master("k", target=target))


def test_election_tie_goes_to_the_lowest_backup_id(env):
    kernel, cluster = env
    _put_backed_by_w1_w2(kernel, cluster)
    assert cluster.server("w1").free_bytes == cluster.server("w2").free_bytes
    assert _migrate(kernel, cluster) == "w1"


def test_election_picks_the_freest_backup(env):
    kernel, cluster = env
    _put_backed_by_w1_w2(kernel, cluster)
    cluster.server("w2").resize(65 * MB)
    assert _migrate(kernel, cluster) == "w2"


def test_election_target_restricts_the_candidates(env):
    kernel, cluster = env
    _put_backed_by_w1_w2(kernel, cluster)
    cluster.server("w1").resize(65 * MB)  # w1 would win an open election
    assert _migrate(kernel, cluster, target="w2") == "w2"
    assert cluster.location_of("k") == "w2"


def test_election_target_outside_the_backups_elects_nobody(env):
    kernel, cluster = env
    _put_backed_by_w1_w2(kernel, cluster)
    assert _migrate(kernel, cluster, target="w3") is None
    assert cluster.location_of("k") == "w0"


@pytest.mark.parametrize(
    "disable",
    [
        pytest.param(lambda server: server.crash(), id="down"),
        pytest.param(lambda server: server.backup_delete("k"), id="no-copy"),
        pytest.param(lambda server: server.resize(0), id="cannot-fit"),
    ],
)
def test_election_skips_an_ineligible_backup(env, disable):
    kernel, cluster = env
    _put_backed_by_w1_w2(kernel, cluster)
    disable(cluster.server("w1"))  # w1 wins the tie when eligible
    assert _migrate(kernel, cluster) == "w2"


def test_election_without_an_eligible_backup_changes_nothing(env):
    kernel, cluster = env
    _put_backed_by_w1_w2(kernel, cluster)
    cluster.server("w1").crash()
    cluster.server("w2").resize(0)
    assert _migrate(kernel, cluster) is None
    assert cluster.location_of("k") == "w0"
    assert cluster.coordinator.master_of("k") == "w0"
    assert cluster.coordinator.backups_of("k") == {"w1", "w2"}
    assert not cluster.server("w0").backup_has("k")
    assert cluster.server("w2").backup_has("k")
    assert cluster.stats.migrations == 0


def test_migration_preserves_access_stats(env):
    kernel, cluster = env

    def scenario():
        yield from cluster.put("k", "v", 1000, caller="w0")
        yield from cluster.get("k", caller="w0")
        yield from cluster.get("k", caller="w0")
        yield from cluster.migrate_master("k")

    run(kernel, scenario())
    assert cluster.peek("k").n_access == 2


def test_recovery_promotes_backups(env):
    kernel, cluster = env

    def scenario():
        yield from cluster.put("k1", "v1", 1000, caller="w0")
        yield from cluster.put("k2", "v2", 2000, caller="w0")
        cluster.crash("w0")
        recovered = yield from cluster.recover("w0")
        return recovered

    assert run(kernel, scenario()) == 2
    for key in ("k1", "k2"):
        location = cluster.location_of(key)
        assert location is not None and location != "w0"
    assert cluster.stats.recovered_objects == 2


def test_recovery_restores_replication_factor(env):
    kernel, cluster = env

    def scenario():
        yield from cluster.put("k", "v", 1000, caller="w0")
        cluster.crash("w0")
        yield from cluster.recover("w0")

    run(kernel, scenario())
    backups = cluster.coordinator.backups_of("k")
    master = cluster.location_of(key="k")
    assert master not in backups
    assert len(backups) == 2
    for backup_id in backups:
        assert cluster.server(backup_id).backup_has("k")


def test_object_lost_when_all_replicas_down(env):
    kernel, cluster = env

    def scenario():
        yield from cluster.put("k", "v", 1000, caller="w0")
        for backup_id in cluster.coordinator.backups_of("k"):
            cluster.crash(backup_id)
        cluster.crash("w0")
        recovered = yield from cluster.recover("w0")
        return recovered

    assert run(kernel, scenario()) == 0
    assert not cluster.contains("k")


def test_scale_up_and_down(env):
    kernel, cluster = env

    def scenario():
        cap = yield from cluster.scale_up("w0", 32 * MB)
        assert cap == 96 * MB
        cap = yield from cluster.scale_down("w0", 16 * MB)
        return cap

    assert run(kernel, scenario()) == 16 * MB
    assert cluster.stats.resizes == 2


def test_total_capacity_and_used(env):
    kernel, cluster = env
    assert cluster.total_capacity == 4 * 64 * MB

    def scenario():
        yield from cluster.put("k", "v", 1000, caller="w0")

    run(kernel, scenario())
    assert cluster.total_used >= SEGMENT_SIZE


def test_replication_factor_clamped_to_cluster_size():
    kernel = Kernel()
    cluster = CacheCluster(kernel, ["a", "b"], replication_factor=5)
    assert cluster.coordinator.replication_factor == 1
