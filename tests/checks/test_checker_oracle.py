"""The one-walk checker against the checker it replaced.

:mod:`tests.checks.reference_invariants` keeps the two-grouping,
rescan-per-read checker verbatim.  Every case here requires the same
``Violation`` lists from both (fields, detail strings and order) from
``check_ops``, ``check_end_state`` and ``check_history``: on histories
recorded from chaos cells, and on Hypothesis histories over one to four
keys with overlapping and unacked intervals, every status, shared and
distinct payload objects, store versions, pipeline ids and intermediate
writes, checked bare and against a small real deployment.  One recorded
history is also handed over both as the recorder's columns and as a
list of records: one verdict.
"""

from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import grid
from repro.bench.grid import load_cell, run_cell, TenantCell
from repro.checks import check_history, History, invariants, OpRecord
from repro.core import OFCPlatform
from repro.faas.platform import PlatformConfig
from tests.checks import reference_invariants as reference

REPRODUCER = (
    Path(__file__).resolve().parents[2]
    / "examples"
    / "faults"
    / "chaos_faast-high-none_durability_seed0.json"
)

KEYS = ("b/k0", "b/k1", "b/k2", "b/k3")
STATUSES = ("ok", "miss", "unavailable", "error")


def assert_same(ops, ofc=None):
    """Both checkers agree on every entry point; returns the history's
    full verdict."""
    assert invariants.check_ops(ops) == reference.check_ops(ops)
    if ofc is not None:
        assert invariants.check_end_state(ops, ofc) == reference.check_end_state(
            ops, ofc
        )
    verdict = invariants.check_history(ops, ofc)
    assert verdict == reference.check_history(ops, ofc)
    return verdict


def deployment():
    ofc = OFCPlatform(platform_config=PlatformConfig(node_memory_mb=4096), seed=3)
    ofc.store.create_bucket("b")
    ofc.start()
    return ofc


def drive(ofc, gen):
    return ofc.kernel.run_until(ofc.kernel.process(gen))


def recorded(cell, monkeypatch):
    """The history and settled deployment ``run_cell`` hands its checker."""
    seen = []

    def spy(ops, ofc):
        seen.append((ops, ofc))
        return check_history(ops, ofc)

    monkeypatch.setattr(grid, "check_history", spy)
    run_cell(cell)
    ((ops, ofc),) = seen
    return ops, ofc


def test_faast_reproducer_history_matches_oracle(monkeypatch):
    ops, ofc = recorded(load_cell(str(REPRODUCER)), monkeypatch)
    verdict = assert_same(ops, ofc)
    counts = invariants.count_by_invariant(verdict)
    assert counts == {"dirty-final": 31, "durability": 3}


def fields(record):
    return tuple(getattr(record, name) for name in OpRecord.__slots__)


def test_a_list_and_a_recorded_history_get_one_verdict(monkeypatch):
    """The recorder's columns and the same ops handed over as a list of
    records (appended into a History by the checker) are judged alike."""
    history, ofc = recorded(load_cell(str(REPRODUCER)), monkeypatch)
    assert isinstance(history, History)
    records = list(history)
    assert [fields(r) for r in History(records)] == [fields(r) for r in records]
    assert invariants.check_ops(records) == invariants.check_ops(history)
    assert invariants.check_end_state(records, ofc) == invariants.check_end_state(
        history, ofc
    )
    verdict = check_history(history, ofc)
    assert check_history(records, ofc) == verdict
    assert len(verdict) == 34


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ofc_chaos_cell_history_matches_oracle(seed, monkeypatch):
    cell = TenantCell(
        intensity="high",
        n_tenants=24,
        mean_interval_s=6.0,
        duration_s=30.0,
        seed=seed,
        warmup_s=10.0,
    )
    ops, ofc = recorded(cell, monkeypatch)
    assert len(ops) > 100
    assert_same(ops, ofc)


#: Every interval on the instants 0, 1 and 2; ``None``: never acked.
INTERVALS = [
    (t0, t1) for t0 in (0.0, 1.0, 2.0) for t1 in (None, 0.0, 1.0, 2.0)
    if t1 is None or t1 >= t0
]


def every_history(n_writes, with_delete, payloads):
    """Every one-key history of ``n_writes`` writes (each ok or failed),
    one read (ok with either write's payload, or a miss; in the writers'
    pipeline or not) and, if ``with_delete``, no delete or one, over the
    INTERVALS: each tie between a start and an ack occurs."""
    writes = list(product(INTERVALS, ("ok", "error")))
    reads = list(product(INTERVALS, payloads + ("miss",), (None, "pl-1")))
    deletes = [None] + INTERVALS if with_delete else [None]
    for written, read, delete in product(
        product(writes, repeat=n_writes), reads, deletes
    ):
        ops = [
            OpRecord(
                seq=seq, op="write", key="b/k", t_start=t0, t_ack=t1,
                status=status, payload=payloads[seq - 1],
                store_version=n_writes - seq, pipeline_id="pl-1",
            )
            for seq, ((t0, t1), status) in enumerate(written, 1)
        ]
        (t0, t1), returned, pipeline = read
        ops.append(
            OpRecord(
                seq=len(ops) + 1, op="read", key="b/k", t_start=t0, t_ack=t1,
                status="miss" if returned == "miss" else "ok",
                payload=None if returned == "miss" else returned,
                pipeline_id=pipeline,
            )
        )
        if delete is not None:
            ops.append(
                OpRecord(
                    seq=len(ops) + 1, op="delete", key="b/k",
                    t_start=delete[0], t_ack=delete[1],
                )
            )
        yield ops


@pytest.mark.parametrize("n_writes, with_delete", [(1, True), (2, False)])
def test_every_small_history_matches_oracle(n_writes, with_delete):
    """Exhaustive at the boundaries: a key with one write (the direct
    path) beside a delete, and a key with two (the sorted path), judged
    against an RSDS that holds the second write's payload."""
    payloads = (object(), object())
    ofc = deployment()
    drive(ofc, ofc.store.put("b", "k", payloads[1], 100))
    for ops in every_history(n_writes, with_delete, payloads):
        assert_same(ops, ofc)


@st.composite
def histories(draw, max_ops):
    """Ops over 1-4 keys on a coarse clock (ties at every instant), in
    any start order; ``seq`` is unique, as the recorder numbers it.  Few
    ops leave most keys with at most one write (the direct path), many
    give them several (the sorted one)."""
    keys = KEYS[: draw(st.integers(1, 4))]
    payloads = [object() for _ in range(draw(st.integers(1, 3)))] + [None]
    ops = []
    for seq in range(1, draw(st.integers(1, max_ops)) + 1):
        kind = draw(st.sampled_from(("read", "write", "delete")))
        t_start = float(draw(st.integers(0, 8)))
        duration = draw(st.none() | st.integers(0, 3))
        ops.append(
            OpRecord(
                seq=seq,
                op=kind,
                key=draw(st.sampled_from(keys)),
                t_start=t_start,
                t_ack=None if duration is None else t_start + duration,
                status=draw(st.sampled_from(STATUSES)),
                payload=draw(st.sampled_from(payloads)),
                size=100,
                store_version=draw(st.none() | st.integers(0, 3)),
                payload_missing=kind == "read" and draw(st.booleans()),
                pipeline_id=draw(st.sampled_from((None, "pl-1", "pl-2"))),
                intermediate=kind == "write" and draw(st.booleans()),
            )
        )
    return ops


@settings(max_examples=300, deadline=None)
@given(histories(max_ops=8))
def test_random_short_history_matches_oracle(ops):
    assert_same(ops)


@settings(max_examples=200, deadline=None)
@given(histories(max_ops=30))
def test_random_long_history_matches_oracle(ops):
    assert_same(ops)


@settings(max_examples=150, deadline=None)
@given(histories(max_ops=16), st.data())
def test_random_history_against_deployment_matches_oracle(ops, data):
    ofc = deployment()
    # Per key, the RSDS and the cache each hold one of the history's
    # payloads or nothing; a cached copy may be a dirty final output.
    held = st.sampled_from([False] + [(op.payload,) for op in ops])
    for key in KEYS:
        stored, cached = data.draw(held), data.draw(held)
        if stored:
            drive(ofc, ofc.store.put("b", key[2:], stored[0], 100))
        if cached:
            flags = {"dirty": data.draw(st.booleans()), "final": True}
            drive(ofc, ofc.backend.put(key, cached[0], 100, "w0", flags=flags))
    assert_same(ops, ofc)
