"""A put's backups share one replica, and replicas are values.

The master and the replica share one flags dict; a flag update, a
recovery's promotion and a master hand-off store new objects and dicts
instead of changing shared ones, so what one copy serves never moves
another.
"""

import pytest

from repro.kvcache.cluster import CacheCluster
from repro.sim import Kernel
from repro.sim.latency import MB


@pytest.fixture
def env():
    kernel = Kernel()
    cluster = CacheCluster(kernel, ["w0", "w1", "w2", "w3"], replication_factor=2)
    for node in cluster.node_ids:
        cluster.server(node).resize(64 * MB)
    kernel.run_process(cluster.put("k", "v1", 1 * MB, "w0", flags={"dirty": True}))
    return kernel, cluster


def copies(cluster, key="k"):
    record = cluster.coordinator.placements[key]
    return [cluster.server(b)._backup[key] for b in record.backups]


def test_a_puts_backups_share_one_replica_and_its_flags(env):
    kernel, cluster = env
    master = cluster.peek("k")
    first, second = copies(cluster)
    assert first is second and first is not master
    assert first.flags is master.flags
    kernel.run_process(cluster.get("k", "w1"))
    assert (master.n_access, first.n_access) == (1, 0)


def test_set_flags_replaces_the_shared_replica_and_dict(env):
    _kernel, cluster = env
    master = cluster.peek("k")
    old = copies(cluster)[0]
    old_flags = master.flags
    cluster.set_flags("k", dirty=False)
    first, second = copies(cluster)
    assert first is second and first is not old
    assert master.flags == first.flags == {"dirty": False}
    assert first.flags is master.flags
    assert old.flags is old_flags and old_flags == {"dirty": True}


def test_set_flags_merges_a_diverged_backup_on_its_own(env):
    """A backup whose flags differ (it missed an update) is merged with
    its own flags, not given the master's."""
    _kernel, cluster = env
    backup = cluster.server(cluster.coordinator.placements["k"].backups[0])
    stale = backup._backup["k"].replica({"dirty": True, "tenant": "t0"})
    backup.backup_replace(stale)
    cluster.set_flags("k", dirty=False)
    assert backup._backup["k"].flags == {"dirty": False, "tenant": "t0"}
    assert cluster.peek("k").flags == {"dirty": False}


def test_recovery_promotes_a_new_object(env):
    kernel, cluster = env
    cluster.crash("w0")
    kernel.run_process(cluster.recover("w0"))
    promoted = cluster.peek("k")
    assert promoted.value == "v1"
    assert all(copy is not promoted for copy in copies(cluster))
    kernel.run_process(cluster.get("k", "w1"))
    assert all(copy.n_access == 0 for copy in copies(cluster))


def test_a_hand_off_leaves_the_other_backup_as_it_was(env):
    kernel, cluster = env
    kernel.run_process(cluster.get("k", "w0"))
    before = {b: cluster.server(b)._backup["k"] for b in ("w1", "w2", "w3")
              if "k" in cluster.server(b)._backup}
    new_master = kernel.run_process(cluster.migrate_master("k"))
    promoted = cluster.peek("k")
    assert promoted is not before[new_master]
    assert (promoted.n_access, promoted.flags) == (1, {"dirty": True})
    for node, copy in before.items():
        if node != new_master:
            assert cluster.server(node)._backup["k"] is copy
            assert copy.n_access == 0
    cluster.audit()
