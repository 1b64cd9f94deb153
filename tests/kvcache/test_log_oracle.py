"""The counter-keeping ``ObjectLog`` against its recompute-everything
oracle (``reference_log.py``): a stateful property test over the log's
own operations, and one seeded deployment run on each."""

from dataclasses import asdict

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import invariant, rule, RuleBasedStateMachine

from repro.bench.envs import build_ofc_env
from repro.kvcache.errors import CacheError
from repro.kvcache.log import ObjectLog
from repro.workloads.tenants import TenantLoadEngine, TenantWorkloadConfig
from tests.kvcache.reference_log import ReferenceObjectLog

#: Small enough that a handful of appends rolls the head over.
SEGMENT = 64

keys = st.sampled_from([f"k{i}" for i in range(8)])
#: Zero-size, ordinary and jumbo (> SEGMENT) entries.
sizes = st.one_of(
    st.just(0), st.integers(1, SEGMENT), st.integers(SEGMENT + 1, 3 * SEGMENT)
)


class LogAgainstOracle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.log = ObjectLog(segment_size=SEGMENT)
        self.oracle = ReferenceObjectLog(segment_size=SEGMENT)

    @rule(key=keys, size=sizes)
    def append(self, key, size):
        # Re-appending a present key is the overwrite case.
        self.log.append(key, size)
        self.oracle.append(key, size)

    @rule(key=keys)
    def delete(self, key):
        if key in self.oracle:
            assert self.log.delete(key) == self.oracle.delete(key)
        else:
            with pytest.raises(CacheError):
                self.log.delete(key)

    @rule()
    def clean(self):
        assert self.log.clean() == self.oracle.clean()

    @invariant()
    def accounting_agrees(self):
        log, oracle = self.log, self.oracle
        assert log.footprint_bytes == oracle.footprint_bytes
        assert log.live_bytes == oracle.live_bytes
        assert log.segment_count == oracle.segment_count
        assert list(log.keys()) == list(oracle.keys())
        assert log.stats == oracle.stats
        log.audit()


LogAgainstOracle.TestCase.settings = settings(
    max_examples=200, stateful_step_count=60, deadline=None
)
TestLogAgainstOracle = LogAgainstOracle.TestCase


def test_clean_rolls_the_head_over_mid_victim():
    """The machine reaches this only by chance: a victim whose first
    entry still fits in the head and whose second does not.  The head it
    closes is itself under-utilized, so it joins the work-list for the
    next pass, not this one."""
    machine = LogAgainstOracle()
    log = machine.log

    def step(rule, *args):
        rule(*args)
        machine.accounting_agrees()

    for key in ("a", "b", "c"):
        step(machine.append, key, 20)
    step(machine.append, "x", 30)  # rolls over: the victim holds a, b, c
    step(machine.delete, "a")  # the victim at 40 of 64 live: cleanable
    step(machine.delete, "x")  # the head keeps 30 dead bytes, 34 free
    victim, old_head = list(log._segments)
    step(machine.clean)
    # b went into the old head, c did not fit beside it.
    assert log._locations["b"] is old_head
    assert log._locations["c"] is log._head is not old_head
    assert old_head in log.cleanable and victim not in log._segments
    assert log.stats.relocated_bytes == 40
    step(machine.clean)  # the closed head, next pass
    assert log.stats.relocated_bytes == 60
    assert log.segment_count == 1


def test_audit_reports_a_drifted_counter():
    log = ObjectLog(segment_size=SEGMENT)
    log.append("a", 10)
    log.audit()
    log.footprint_bytes += 1
    with pytest.raises(CacheError, match="footprint_bytes"):
        log.audit()


def test_value_equal_dead_segments_are_told_apart():
    """An emptied ex-head and a closed segment losing its last entry,
    with the same dead bytes: the second must be the one dropped."""
    log = ObjectLog(segment_size=100)
    log.append("a", 60)
    log.delete("a")
    ex_head = log._head
    log.append("b", 60)  # does not fit beside the dead 60: head rolls over
    closing = log._head
    log.append("c", 60)  # rolls over again; ``closing`` holds only b
    assert (ex_head.dead_bytes, ex_head.live) == (60, {})
    log.delete("b")
    assert (closing.dead_bytes, closing.live) == (60, {})
    remaining = list(log._segments)
    assert any(seg is ex_head for seg in remaining)
    assert not any(seg is closing for seg in remaining)
    log.audit()


def _run_tight_cell():
    """A small memory-tight multi-tenant cell: churn makes the cache
    hand memory back, so resize/clean/migrate all run."""
    ofc = build_ofc_env(nodes=3, node_mb=2048.0, seed=5, keepalive_s=4.0)
    records = []
    ofc.platform.completion_listeners.append(
        lambda r: records.append(
            (
                r.request.request_id,
                r.request.key,
                r.node,
                r.sandbox_id,
                r.cold_start,
                r.submitted_at,
                r.started_at,
                r.finished_at,
                r.memory_limit_mb,
                r.retries,
                r.status,
            )
        )
    )
    workload = TenantWorkloadConfig(n_tenants=40, mean_interval_s=2.0, seed=5)
    engine = TenantLoadEngine(ofc.kernel, ofc.platform, ofc.store, workload)
    engine.run(40.0)
    servers = ofc.backend.coordinator.servers
    for server in servers.values():
        server.log.audit()
    collected = ofc.obs.snapshot()["collected"]
    return {
        "log_stats": {
            node: asdict(server.log.stats) for node, server in servers.items()
        },
        "kvcache": collected["kvcache"],
        "ofc": collected["ofc"],
        "records": records,
    }


def test_seeded_cell_is_identical_on_the_oracle(monkeypatch):
    production = _run_tight_cell()
    monkeypatch.setattr("repro.kvcache.server.ObjectLog", ReferenceObjectLog)
    reference = _run_tight_cell()
    # The cell must actually exercise the hand-back path.
    assert production["kvcache"]["migrations"] > 0
    assert sum(s["relocated_bytes"] for s in production["log_stats"].values()) > 0
    assert len(production["records"]) > 100
    for part in ("log_stats", "kvcache", "ofc", "records"):
        assert production[part] == reference[part], part
