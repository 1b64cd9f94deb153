"""The cache contract, as one state machine over every registered backend.

The reference is the acknowledged state: ``key -> (value, version,
flags)`` for every key a put was acked for and no delete, refused put
or counted loss has since removed.  The machine drives puts
(overwrites, oversize, tenant and dirty flags), reads, deletes, the
persistor's flag update, one node crash at a time with recovery and
restart (each followed by a repair pass), and simulated time (so
InfiniCache's backup and reclaim loops and Faa$T's rescale run), on
nodes small enough that an overwrite can be refused.  After every step
it checks the declared loss model:

* **never stale** — whatever is served (``get``, ``peek``,
  ``location_of``, ``contains``, ``objects()``) carries the reference's
  latest value, size, version and flags, and ``objects()`` lists it on
  the node ``location_of`` names; a key outside the reference is never
  served, nor deleted, nor flagged;
* an oversize put changes nothing; what is served fits in
  ``total_used``, which fits in ``total_capacity`` (except on ``ofc``:
  see the strict xfail at the end);
* between ``crash(n)`` and ``recover(n)`` a key may be unavailable;
* a clean key (the RSDS has it) may be dropped at any time — capacity
  pressure, teardown, a crash;
* a dirty key (its write-back still pending) is never dropped by
  capacity pressure or teardown: outside a crash it is served, or at
  least still listed by ``objects()`` while the backend restores it
  (InfiniCache's warm-up after a reclamation beyond r).  A crash may
  lose it only *counted*, in ``lost_objects`` (OFC's recovery cannot
  promote onto backups with no room; the persistor still holds the
  payload); a key the survivors cannot hold but the backend keeps
  (InfiniCache parks it) is served again once the node is back;
* until the first crash, the object hooks balance ``objects()`` per
  tenant.

Faults run as the fault injector runs them — crash; recover, repair;
restart, repair — so a backend has restored its redundancy (OFC's
backups, Faa$T's mirror, InfiniCache's k + r chunks) before the next
node may fail.  :func:`replay` runs a fixed step list through the same
machine; the scenario tests in ``test_backend_contract.py`` are such
replays.
"""

from dataclasses import dataclass
from itertools import count
from typing import Any, Dict, FrozenSet

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    initialize,
    invariant,
    precondition,
    rule,
    RuleBasedStateMachine,
    run_state_machine_as_test,
)

from repro.cache import BACKENDS, make_backend
from repro.core.config import OFCConfig
from repro.kvcache.cluster import CacheCluster
from repro.kvcache.errors import CapacityExceeded, NoSuchKey, ObjectTooLarge
from repro.sim import Kernel
from repro.sim.latency import MB

NODES = ["w0", "w1", "w2"]
KEYS = ["a/k0", "a/k1", "a/k2"]
MAX_OBJECT = 4 * MB
#: Harvested pools on ``ofc``: a 3 MB and a 1 MB object fill ``w0`` and
#: ``w1``, so overwrites there can be refused; ``w2`` has room to
#: promote most of what a crash leaves.
OFC_NODE_BYTES = {"w0": 4 * MB, "w1": 4 * MB, "w2": 8 * MB}

keys = st.sampled_from(KEYS)
nodes = st.sampled_from(NODES)
sizes = st.sampled_from([100_000, 1 * MB, 2 * MB, 3 * MB, MAX_OBJECT + 1])
tenants = st.sampled_from(["t0", "t1"])

# Fault phases, one node at a time: crash, recover, restart.
HEALTHY, CRASHED, RECOVERED = "healthy", "crashed", "recovered"


def machine_config() -> OFCConfig:
    """Small slabs so pressure refuses writes; short periods so the
    rivals' loops tick inside a run."""
    return OFCConfig(
        faast_shard_mb=4.0,
        faast_max_shards_per_app=2,
        faast_scale_period_s=5.0,
        infinicache_data_chunks=2,
        infinicache_parity_chunks=1,
        infinicache_lambdas_per_node=2,
        infinicache_lambda_mb=3.0,
        infinicache_lifetime_s=40.0,
        infinicache_backup_period_s=5.0,
        infinicache_reclaim_period_s=10.0,
    )


def build(backend_name: str):
    kernel = Kernel()
    backend = make_backend(
        backend_name,
        kernel,
        NODES,
        config=machine_config(),
        rng=None,
        max_object_size=MAX_OBJECT,
    )
    if backend_name == "ofc":
        # The harvested pool normally grows via CacheAgents; here it is
        # provisioned through the same resize path.
        def grow():
            for node in NODES:
                yield from backend.scale_up(node, OFC_NODE_BYTES[node])

        kernel.run_until(kernel.process(grow()))
    backend.start()
    return kernel, backend


@dataclass
class Acked:
    value: Any
    size: int
    #: Versions the backend may have given the write: one once served.
    versions: FrozenSet[int]
    flags: Dict[str, Any]


class BackendMachine(RuleBasedStateMachine):
    def __init__(self, backend_name: str):
        super().__init__()
        self.kernel, self.backend = build(backend_name)
        self.ref: Dict[str, Acked] = {}
        self.values = count()
        self.phase = HEALTHY
        self.down = None
        self.crashed_once = False
        #: Per-tenant bytes the object hooks say are resident.
        self.hooked: Dict[str, int] = {}
        self.backend.on_object_admitted = lambda obj: self._hook(obj, 1)
        self.backend.on_object_removed = lambda obj: self._hook(obj, -1)

    def _hook(self, obj, sign: int) -> None:
        tenant = obj.flags["tenant"]
        self.hooked[tenant] = self.hooked.get(tenant, 0) + sign * obj.size

    def _run(self, gen):
        return self.kernel.run_until(self.kernel.process(gen))

    def _served(self, key: str, obj) -> None:
        """``obj`` was served for ``key``: it must be the acked state."""
        acked = self.ref.get(key)
        assert acked is not None, f"{key} v{obj.version} served, never acked"
        assert obj.value == acked.value, (key, obj.value, acked.value)
        assert obj.size == acked.size, (key, obj.size, acked.size)
        assert obj.version in acked.versions, (key, obj.version, acked.versions)
        assert obj.flags == acked.flags, (key, obj.flags, acked.flags)
        acked.versions = frozenset([obj.version])

    def _contents(self):
        """What a refused-before-any-state put must leave as it was."""
        listed = sorted((obj.key, obj.version) for _node, obj in self.backend.objects())
        return self.backend.total_used, listed

    def _may_miss(self, key: str) -> bool:
        acked = self.ref.get(key)
        return acked is None or not acked.flags["dirty"] or self.phase == CRASHED

    # -- data plane ----------------------------------------------------------

    @initialize(
        writes=st.lists(
            st.tuples(sizes, nodes, tenants, st.booleans()),
            min_size=len(KEYS),
            max_size=len(KEYS),
        )
    )
    def populate(self, writes):
        """Start from a cache holding every key, so overwrites,
        refusals and crashes meet data from the first step."""
        for key, (size, caller, tenant, dirty) in zip(KEYS, writes):
            self.put(key, size, caller, tenant, dirty)

    @rule(key=keys, size=sizes, caller=nodes, tenant=tenants, dirty=st.booleans())
    def put(self, key, size, caller, tenant, dirty):
        served = self.backend.peek(key) is not None
        acked = self.ref.get(key)
        value = f"{key}#{next(self.values)}"
        flags = {"tenant": tenant, "dirty": dirty}
        before = self._contents()
        try:
            node = self._run(self.backend.put(key, value, size, caller, flags=flags))
        except ObjectTooLarge:
            assert size > MAX_OBJECT
            assert self._contents() == before, "an oversize put changed state"
            return
        except CapacityExceeded:
            assert size <= MAX_OBJECT
            self.ref.pop(key, None)
            assert self.backend.peek(key) is None
            return
        assert size <= MAX_OBJECT
        assert node in NODES and node != self.down, node
        bumped = {v + 1 for v in acked.versions} if acked else set()
        # An unserved key may still be known (a crashed master's
        # backups, a degraded stripe) or may have been dropped.
        versions = bumped if served else {1} | bumped
        self.ref[key] = Acked(value, size, frozenset(versions), flags)

    @rule(key=keys, caller=nodes)
    def get(self, key, caller):
        served = self.backend.peek(key) is not None
        try:
            obj = self._run(self.backend.get(key, caller))
        except NoSuchKey:
            assert not served, f"{key} peeked, then missed"
            return
        assert served, f"{key} read, not peeked"
        self._served(key, obj)

    @rule(key=keys, caller=nodes)
    def delete(self, key, caller):
        served = self.backend.peek(key) is not None
        try:
            self._run(self.backend.delete(key, caller))
        except NoSuchKey:
            assert not served, f"served {key} not deleted"
        else:
            assert key in self.ref, f"never-acked {key} deleted"
        self.ref.pop(key, None)
        assert self.backend.peek(key) is None

    @rule(data=st.data(), final=st.booleans())
    def write_back_lands(self, data, final):
        """Drawn from the dirty keys while there are any."""
        dirty = [key for key, acked in self.ref.items() if acked.flags["dirty"]]
        self.persisted(data.draw(st.sampled_from(sorted(dirty) or KEYS)), final)

    def persisted(self, key, final=False):
        """The persistor landed the write-back: ``dirty`` clears.  With
        ``final``, a second flag lands in the same call."""
        flags = {"dirty": False}
        if final:
            flags["final"] = True
        try:
            self.backend.set_flags(key, **flags)
        except NoSuchKey:
            assert self._may_miss(key), f"dirty {key} has no copy to flag"
            return
        assert key in self.ref, f"never-acked {key} flagged"
        self.ref[key].flags.update(flags)

    # -- faults --------------------------------------------------------------

    @precondition(lambda self: self.phase == HEALTHY)
    @rule(key=keys, fallback=nodes)
    def crash(self, key, fallback):
        """Fail the node serving ``key`` (else ``fallback``)."""
        node = self.backend.location_of(key) or fallback
        self.backend.crash(node)
        self.down, self.phase, self.crashed_once = node, CRASHED, True

    @precondition(lambda self: self.phase == CRASHED)
    @rule()
    def recover(self):
        """Recovery, then a repair pass — the fault injector's order."""
        lost_before = self.backend.stats_snapshot()["lost_objects"]
        self._run(self.backend.recover(self.down))
        lost = self.backend.stats_snapshot()["lost_objects"] - lost_before
        self._run(self.backend.repair())
        self.phase = RECOVERED
        # A dirty key the survivors have no room for is either kept for
        # later (listed) or lost, counted; never silently gone.
        listed = {obj.key for _node, obj in self.backend.objects()}
        gone = [
            key
            for key, acked in self.ref.items()
            if acked.flags["dirty"]
            and self.backend.peek(key) is None
            and key not in listed
        ]
        assert len(gone) <= lost, f"dirty {gone} dropped, {lost} counted lost"
        for key in gone:
            del self.ref[key]

    @precondition(lambda self: self.phase == RECOVERED)
    @rule()
    def restart(self):
        """Restart, then a repair pass restoring the redundancy the
        crash took — before any other node may fail."""
        self.backend.restart(self.down)
        self._run(self.backend.repair())
        self.down, self.phase = None, HEALTHY
        unserved = [
            key
            for key, acked in self.ref.items()
            if acked.flags["dirty"] and self.backend.peek(key) is None
        ]
        assert not unserved, f"dirty {unserved} unavailable with every node up"

    @rule(dt=st.floats(0.5, 15.0))
    def advance(self, dt):
        self.kernel.run(until=self.kernel.now + dt)

    # -- the loss model ------------------------------------------------------

    @invariant()
    def loss_model_holds(self):
        backend, now = self.backend, self.kernel.now
        listed = {obj.key: (node, obj) for node, obj in backend.objects()}
        served_bytes = 0
        for key in KEYS:
            obj = backend.peek(key)
            location = backend.location_of(key)
            assert (obj is None) == (location is None) == (not backend.contains(key))
            if obj is None:
                # Not dropped: at worst the backend is restoring it.
                assert self._may_miss(key) or key in listed, (
                    f"dirty {key} dropped ({self.phase})"
                )
                continue
            assert location in NODES and location != self.down, location
            listed_node, listed_obj = listed[key]
            assert listed_obj is obj, f"objects() lists another {key}"
            assert listed_node == location, (key, listed_node, location)
            self._served(key, obj)
            served_bytes += obj.size
        assert set(listed) <= set(self.ref), "objects() lists a never-acked key"
        # Only a key no sandbox holds (InfiniCache restoring it) may be
        # listed off the node pool.
        assert all(node in NODES or node == "external" for node, _ in listed.values())
        assert self.kernel.now == now  # the control plane takes no time
        assert served_bytes <= backend.total_used
        assert served_bytes <= backend.total_capacity
        # OFC's log can charge a fresh segment past its pool: pinned by
        # test_ofc_log_footprint_stays_within_the_pool below.
        assert backend.total_used <= backend.total_capacity or backend.name == "ofc"
        if backend.name == "ofc" and self.down is None:
            backend.audit()  # placement records against the servers
        assert backend.quota_capacity <= backend.total_capacity
        assert backend.total_capacity > 0 or not served_bytes
        snap = backend.stats_snapshot()
        assert snap["live_servers"] == len(NODES) - (self.down is not None)
        if not self.crashed_once:
            resident: Dict[str, int] = {}
            for _node, obj in listed.values():
                tenant = obj.flags["tenant"]
                resident[tenant] = resident.get(tenant, 0) + obj.size
            assert {t: n for t, n in self.hooked.items() if n} == resident


def replay(backend_name: str, *steps) -> BackendMachine:
    """Run ``steps`` — ``(rule, *args)`` tuples — through a fresh
    machine, checking the loss model after each; returns the machine."""
    machine = BackendMachine(backend_name)
    machine.loss_model_holds()
    for name, *args in steps:
        getattr(machine, name)(*args)
        machine.loss_model_holds()
    return machine


@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
def test_backend_keeps_the_contract(backend_name):
    run_state_machine_as_test(
        lambda: BackendMachine(backend_name),
        settings=settings(max_examples=100, stateful_step_count=30, deadline=None),
    )


@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
def test_a_refused_overwrite_leaves_nothing_to_resurrect(backend_name):
    """Fill ``w0``, then overwrite its 1 MB key with 3 MB from ``w0``:
    ``ofc``'s master refuses it.  Whatever the backend did, the old
    value must never be served again — not after the refusal, not after
    the master's node crashes and recovers."""
    machine = replay(
        backend_name,
        ("put", "a/k0", 1 * MB, "w0", "t0", False),
        ("put", "a/k1", 3 * MB, "w0", "t0", False),
        ("put", "a/k0", 3 * MB, "w0", "t0", False),
        ("crash", "a/k1", "w0"),
        ("recover",),
        ("get", "a/k0", "w1"),
    )
    if backend_name == "ofc":
        assert "a/k0" not in machine.ref  # the overwrite was refused


@pytest.mark.xfail(
    strict=True,
    reason="ofc recovery drops a dirty key no surviving backup has room "
    "to promote (counted in lost_objects; the persistor holds the payload)",
)
def test_ofc_recovery_keeps_a_dirty_key_the_backups_cannot_fit():
    kernel = Kernel()
    cluster = CacheCluster(kernel, NODES, replication_factor=2)
    for node in NODES:
        cluster.server(node).resize(4 * MB)
    for key, size, caller in (
        ("a/k0", 3 * MB, "w0"),
        ("a/k1", 2 * MB, "w1"),
        ("a/k2", 2 * MB, "w2"),
    ):
        kernel.run_process(cluster.put(key, key, size, caller, flags={"dirty": True}))
    cluster.crash("w0")
    kernel.run_process(cluster.recover("w0"))
    assert cluster.peek("a/k0") is not None


@pytest.mark.xfail(
    strict=True,
    reason="a master put checks the pool against the log's current "
    "footprint, not the fresh 8 MB segment the append opens (the "
    "tenants_pressure and chaos_faulted cells do this; fixing it moves "
    "their fingerprints)",
)
def test_ofc_log_footprint_stays_within_the_pool():
    kernel = Kernel()
    cluster = CacheCluster(kernel, NODES, replication_factor=2)
    cluster.server("w0").resize(12 * MB)  # backups live on disk
    # 4 + 3 MB fill most of one segment; the last 3 MB opens a second.
    for key, size in (("a/k0", 4 * MB), ("a/k1", 3 * MB), ("a/k2", 3 * MB)):
        kernel.run_process(cluster.put(key, key, size, "w0"))
    assert cluster.total_used <= cluster.total_capacity
