"""The one-record-per-key ``Coordinator`` against the three-map oracle
(``reference_coordinator.py``).

Both coordinators register the same servers, so crashes, restarts,
capacity changes, master-log fill and backup copies are seen by both;
every placement, master change and forget is applied to both, and
after each step every query must agree: results, list order, and the
server an election returns (lowest id on a tie).
"""

from itertools import count

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import initialize, invariant, rule, RuleBasedStateMachine

from repro.kvcache.coordinator import Coordinator
from repro.kvcache.errors import NoSuchKey
from repro.kvcache.objects import CacheObject
from repro.kvcache.server import CacheServer
from repro.sim.latency import MB
from tests.kvcache.reference_coordinator import ReferenceCoordinator

SERVERS = ["w0", "w1", "w2", "w3"]
KEYS = ["k0", "k1", "k2", "k3", "k4"]
#: Few distinct sizes and capacities, so elections tie often.
SIZES = [1 * MB, 3 * MB, 6 * MB]
CAPACITIES = [0, 4 * MB, 8 * MB, 16 * MB]

servers = st.sampled_from(SERVERS)
keys = st.sampled_from(KEYS)
sizes = st.sampled_from(SIZES)


class CoordinatorAgainstOracle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.coordinator = Coordinator(replication_factor=2)
        self.oracle = ReferenceCoordinator(replication_factor=2)
        self.servers = {sid: CacheServer(sid, capacity=16 * MB) for sid in SERVERS}
        for server in self.servers.values():
            self.coordinator.register(server)
            self.oracle.register(server)
        self.fillers = count()

    @initialize()
    def stash_everywhere(self):
        """Every server starts with a copy of every key, all pools
        equal: elections run, and tie, from the first placement."""
        for server in self.servers.values():
            for key in KEYS:
                server.backup_put(CacheObject(key, None, 1 * MB))

    # -- placement -----------------------------------------------------------

    @rule(
        key=keys,
        master=servers,
        # Any order, repeats, even the master: the bookkeeping takes it.
        backups=st.lists(servers, max_size=4),
        version=st.none() | st.integers(1, 5),
    )
    def place(self, key, master, backups, version):
        self.coordinator.record_placement(key, master, backups, version=version)
        self.oracle.record_placement(key, master, backups, version=version)

    @rule(key=keys, new_master=servers)
    def change_master(self, key, new_master):
        if not self.oracle.holds(key):
            with pytest.raises(NoSuchKey):
                self.coordinator.record_master_change(key, new_master)
            return
        self.coordinator.record_master_change(key, new_master)
        self.oracle.record_master_change(key, new_master)

    @rule(key=keys)
    def forget(self, key):
        self.coordinator.forget(key)
        self.oracle.forget(key)

    # -- the servers both see ------------------------------------------------

    @rule(server=servers)
    def crash(self, server):
        self.servers[server].crash()

    @rule(server=servers)
    def restart(self, server):
        self.servers[server].restart()

    @rule(server=servers, capacity=st.sampled_from(CAPACITIES))
    def set_capacity(self, server, capacity):
        self.servers[server].capacity = capacity

    @rule(server=servers, size=sizes)
    def fill(self, server, size):
        """A master copy of some other key: footprint and live bytes."""
        target = self.servers[server]
        if target.up and target.can_fit(size):
            target.master_put(CacheObject(f"fill{next(self.fillers)}", None, size))

    @rule(server=servers)
    def unfill(self, server):
        """Delete the oldest filler: dead bytes the cleaner could free."""
        target = self.servers[server]
        if target.up and target.master_keys():
            target.master_delete(target.master_keys()[0])

    @rule(server=servers, key=keys, size=sizes)
    def stash(self, server, key, size):
        if self.servers[server].up:
            self.servers[server].backup_put(CacheObject(key, None, size))

    @rule(server=servers, key=keys)
    def unstash(self, server, key):
        if self.servers[server].up:
            self.servers[server].backup_delete(key)

    # -- every query agrees --------------------------------------------------

    @invariant()
    def queries_agree(self):
        new, old = self.coordinator, self.oracle
        for key in KEYS:
            assert new.master_of(key) == old.master_of(key), key
            assert new.backups_of(key) == old.backups_of(key), key
            assert new.holds(key) == old.holds(key), key
            assert new.version_of(key) == old.version_of(key), key
            for size in SIZES:
                for target in [None] + SERVERS:
                    assert new.choose_new_master(key, size, target) is (
                        old.choose_new_master(key, size, target)
                    ), (key, size, target)
        for sid in SERVERS:
            assert new.keys_mastered_by(sid) == old.keys_mastered_by(sid), sid
            assert new.keys_backed_by(sid) == old.keys_backed_by(sid), sid
            assert new.choose_backups("k", sid) == old.choose_backups("k", sid), sid
        for size in SIZES:
            for preferred in [None] + SERVERS:
                assert new.choose_master(size, preferred) == (
                    old.choose_master(size, preferred)
                ), (size, preferred)
        assert new.live_servers() == old.live_servers()


CoordinatorAgainstOracle.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None
)
TestCoordinatorAgainstOracle = CoordinatorAgainstOracle.TestCase


def test_backups_of_is_a_fresh_set():
    coordinator = Coordinator()
    coordinator.record_placement("k", "w0", ["w2", "w1"])
    coordinator.backups_of("k").add("w3")
    assert coordinator.backups_of("k") == {"w1", "w2"}
    assert coordinator.placements["k"].backups == ("w1", "w2")
