"""What one cache operation reads: the placement record, not the query
helpers.

The data path reads a key's :class:`~repro.kvcache.coordinator.Placement`
and the servers' dicts once per operation.  The coordinator's public
queries (``master_of``, ``backups_of``, which copies the backup set,
and ``server``, which wraps the dict lookup in a ``try``) stay for
tests and the control plane; an operation that goes back to them fails
here.  This is the cache's budget, as ``tests/faas/test_event_budget.py``
is the invocation's.
"""

import pytest

from repro.kvcache.cluster import CacheCluster
from repro.kvcache.coordinator import Coordinator
from repro.sim import Kernel
from repro.sim.latency import MB


@pytest.fixture
def cluster(monkeypatch):
    kernel = Kernel()
    cluster = CacheCluster(kernel, ["w0", "w1", "w2", "w3"], replication_factor=2)
    for node in cluster.node_ids:
        cluster.server(node).resize(64 * MB)

    def forbidden(*args, **kwargs):
        raise AssertionError("the data path called a coordinator query helper")

    for name in ("master_of", "backups_of", "server"):
        monkeypatch.setattr(Coordinator, name, forbidden)
    return cluster


def test_every_data_plane_operation_reads_the_record(cluster):
    run = cluster.kernel.run_process
    assert run(cluster.put("k", "v1", 1 * MB, "w0")) == "w0"
    overwrite = cluster.put("k", "v2", 1 * MB, "w1", flags={"dirty": True})
    assert run(overwrite) == "w0"
    assert cluster.location_of("k") == "w0"
    assert run(cluster.get("k", "w0")).value == "v2"
    assert run(cluster.get("k", "w2")).version == 2
    assert cluster.peek("k").flags == {"dirty": True}
    cluster.set_flags("k", dirty=False)
    new_master = run(cluster.migrate_master("k"))
    assert new_master not in (None, "w0")
    assert cluster.location_of("k") == new_master
    assert cluster.peek("k").flags == {"dirty": False}
    run(cluster.delete("k", "w3"))
    assert cluster.peek("k") is None and cluster.location_of("k") is None
    assert not any(cluster.coordinator.servers[n]._backup for n in cluster.node_ids)
