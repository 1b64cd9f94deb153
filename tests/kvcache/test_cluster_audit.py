"""``CacheCluster.audit``: the placement records against the servers."""

import pytest

from repro.bench.envs import build_ofc_env
from repro.kvcache.cluster import CacheCluster
from repro.kvcache.errors import CacheError
from repro.kvcache.objects import CacheObject
from repro.sim import Kernel
from repro.sim.latency import MB
from repro.workloads.tenants import TenantLoadEngine, TenantWorkloadConfig


@pytest.fixture
def cluster():
    kernel = Kernel()
    cluster = CacheCluster(kernel, ["w0", "w1", "w2", "w3"], replication_factor=2)
    for node in cluster.node_ids:
        cluster.server(node).resize(64 * MB)
    for key, caller in (("a", "w0"), ("b", "w1")):
        kernel.run_process(cluster.put(key, key, 1 * MB, caller))
    kernel.run_process(cluster.migrate_master("a"))
    cluster.audit()
    return cluster


def test_a_drifted_backup_byte_count_is_named(cluster):
    cluster.server("w3")._backup_bytes += 1
    with pytest.raises(CacheError, match="w3: _backup_bytes"):
        cluster.audit()


def test_a_master_named_as_its_own_backup_is_named(cluster):
    record = cluster.coordinator.placements["b"]
    record.backups = tuple(sorted(record.backups + (record.master,)))
    with pytest.raises(CacheError, match="b: master w1 is also a backup"):
        cluster.audit()


def test_a_named_backup_without_its_copy_is_named(cluster):
    backup = cluster.coordinator.placements["b"].backups[0]
    cluster.server(backup).backup_delete("b")
    with pytest.raises(CacheError, match=f"b: v1, {backup} holds vNone"):
        cluster.audit()


def test_a_backup_newer_than_its_record_is_named(cluster):
    backup, other = cluster.coordinator.placements["b"].backups
    server = cluster.server(backup)
    newer = server._backup["b"].replica()  # the backups share one replica
    newer.version = 2
    server.backup_replace(newer)
    with pytest.raises(CacheError, match=f"b: v1, {backup} holds v2") as drift:
        cluster.audit()
    assert other not in str(drift.value)


def test_an_unnamed_backup_copy_is_named(cluster):
    spare = next(
        node
        for node in cluster.node_ids
        if node not in cluster.coordinator.placements["b"].backups
        and node != cluster.location_of("b")
    )
    cluster.server(spare).backup_put(CacheObject("b", "b", 1 * MB))
    with pytest.raises(CacheError, match=f"b: v1 on {spare}, unnamed"):
        cluster.audit()


def test_an_unrecorded_master_copy_is_named(cluster):
    cluster.coordinator.forget("b")
    with pytest.raises(CacheError, match="b: master copy on w1, unrecorded"):
        cluster.audit()


def test_a_forgotten_keys_leftover_backup_waits_for_the_restart_purge(cluster):
    """The audit judges backup copies by their key's record: a copy
    of a key no record holds is left to ``restart``'s purge."""
    cluster.server("w1").master_delete("b")
    cluster.coordinator.forget("b")
    cluster.audit()


def test_a_memory_tight_tenant_cell_ends_with_its_placement_intact():
    """Hundreds of hand-offs, evictions and write-backs on a seeded
    cell whose nodes hand memory back."""
    ofc = build_ofc_env(nodes=3, node_mb=2048.0, seed=5, keepalive_s=4.0)
    workload = TenantWorkloadConfig(n_tenants=40, mean_interval_s=2.0, seed=5)
    TenantLoadEngine(ofc.kernel, ofc.platform, ofc.store, workload).run(40.0)
    assert ofc.backend.stats.migrations > 500
    ofc.backend.audit()


def test_a_lost_key_leaves_no_backup_copy():
    """A recovery that cannot promote a key (no surviving backup has
    room) forgets it and drops its backup copies: a later re-put must
    not find an old copy of the same version named by no record."""
    kernel = Kernel()
    cluster = CacheCluster(kernel, ["w0", "w1", "w2", "w3"], replication_factor=2)
    for node, pool_mb in zip(cluster.node_ids, (8, 1, 1, 1)):
        cluster.server(node).resize(pool_mb * MB)
    kernel.run_process(cluster.put("a", "x", 4 * MB, "w0"))
    cluster.crash("w0")
    kernel.run_process(cluster.recover("w0"))
    assert cluster.stats.lost_objects == 1
    assert not [
        server.server_id
        for server in cluster.coordinator.servers.values()
        if server.up and server.backup_has("a")
    ]
    cluster.restart("w0")
    kernel.run_process(cluster.put("a", "y", MB // 2, "w3"))
    cluster.audit()


def test_the_capacity_total_follows_every_resize_and_drift_is_named(cluster):
    cluster.server("w2").resize(32 * MB)
    assert cluster.total_capacity == 3 * 64 * MB + 32 * MB
    cluster.audit()
    cluster._pool.capacity += 1
    with pytest.raises(CacheError, match="total_capacity"):
        cluster.audit()
