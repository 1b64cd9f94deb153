"""What the history costs: the bytes a recorded op keeps alive, the
checker's bounded transient memory, and a hot key (many writes, many
reads) still judged as the oracle judges it.

Both memory bounds are taken on a chaos-shaped history recorded through
the recording data client.  A recorded op keeps at most 120 B alive (a
slotted record per op kept 284 B).  The checker's transient peak is at
most a quarter of the history's own bytes (its columns): one argsort of
the key column and one key's views, where the two per-key dict-of-lists
groupings of an earlier checker peaked at about 1.5x the records.
"""

import inspect
import random
import sys
import tracemalloc
from types import SimpleNamespace

from repro.checks import History, HistoryRecorder, OpRecord
from repro.checks.invariants import check_history, check_ops
from repro.core import OFCPlatform
from repro.faas.dataclient import DataClient
from repro.faas.platform import PlatformConfig
from repro.faas.records import InvocationRequest
from tests.checks import reference_invariants as reference


def op(seq, kind, key, t0, t1, payload=None, **fields):
    return OpRecord(
        seq=seq, op=kind, key=key, t_start=t0, t_ack=t1, payload=payload,
        size=100, **fields,
    )


def chaos_shaped_history():
    """About 20k ops shaped like a faulted tenant cell's: 7,500 outputs
    written once, 400 inputs read 25 times each (no write: pre-staged),
    and 10 hot keys written and re-read 100 times each.  Every read
    returns an admissible payload."""
    ops = []

    def add(kind, key, t0, t1, payload):
        ops.append(op(len(ops) + 1, kind, key, t0, t1, payload))

    for i in range(7500):
        add("write", f"out/o{i}", i * 0.01, i * 0.01 + 0.2, object())
    for r in range(25):
        for i in range(400):
            t = r * 10.0 + i * 0.01
            add("read", f"in/i{i}", t, t + 0.1, object())
    for k in range(10):
        for i in range(100):
            written = object()
            add("write", f"out/hot{k}", float(i), i + 0.5, written)
            add("read", f"out/hot{k}", i + 0.75, i + 0.9, written)
    return ops


class Replay(DataClient):
    """The inner data client of a replay: each call acks at once, at
    the ack time and with the payload of the record being replayed."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.op = None

    def _ack(self):
        self.kernel.now = self.op.t_ack
        meta = SimpleNamespace(size=self.op.size, version=1)
        return SimpleNamespace(payload=self.op.payload, meta=meta)

    def read(self, bucket, name):
        return self._ack()
        yield  # a generator that never suspends

    def write(self, bucket, name, payload, size, **_options):
        return self._ack()
        yield

    def delete(self, bucket, name):
        return self._ack()
        yield


def recorded(ops) -> History:
    """``ops`` replayed through a :class:`HistoryRecorder`'s client."""
    kernel = SimpleNamespace(now=0.0)
    replay = Replay(kernel)
    ofc = SimpleNamespace(
        kernel=kernel, platform=SimpleNamespace(data_client_factory=None)
    )
    recorder = HistoryRecorder(ofc)
    recorder._inner_factory = lambda _invoker, _record: replay
    record = SimpleNamespace(request=InvocationRequest(function="f", tenant="t"))
    client = ofc.platform.data_client_factory(None, record)
    for op in ops:
        kernel.now = op.t_start
        replay.op = op
        bucket, _sep, name = op.key.partition("/")
        if op.op == "write":
            call = client.write(bucket, name, op.payload, op.size)
        else:
            call = getattr(client, op.op)(bucket, name)
        try:
            next(call)
        except StopIteration:
            continue
        raise AssertionError("a replayed op suspended")
    return recorder.ops


def settled(ops):
    """A deployment whose RSDS holds every key's last written payload."""
    ofc = OFCPlatform(platform_config=PlatformConfig(node_memory_mb=4096), seed=3)
    ofc.store.create_bucket("out")
    ofc.start()
    last = {o.key: o.payload for o in ops if o.op == "write"}

    def persist():
        for key, payload in last.items():
            yield from ofc.store.put("out", key[4:], payload, 100)

    ofc.kernel.run_until(ofc.kernel.process(persist()))
    return ofc


def test_a_recorded_op_keeps_at_most_120_bytes_alive():
    """What the recorder allocates and still holds once the history is
    recorded: the columns, the write keys and the interned read keys."""
    ops = chaos_shaped_history()
    tracemalloc.start()
    try:
        history = recorded(ops)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert len(history) == len(ops)
    where = tracemalloc.Filter(True, inspect.getfile(History))
    kept = sum(s.size for s in snapshot.filter_traces([where]).statistics("filename"))
    assert kept <= 120 * len(ops), kept / len(ops)


def test_check_history_transient_is_a_quarter_of_the_history_at_most():
    ops = chaos_shaped_history()
    assert 19_000 <= len(ops) <= 21_000
    history = recorded(ops)
    ofc = settled(ops)
    history_bytes = sys.getsizeof(history)
    tracemalloc.start()
    try:
        violations = check_history(history, ofc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert violations == []
    assert peak <= 0.25 * history_bytes, (peak, history_bytes)


def test_hot_key_with_overlapping_writes_matches_the_oracle():
    """One key, 1,000 writes and 1,000 reads on a crowded clock: reads
    return the last acked payload, a racing write's, or a stale one."""
    rng = random.Random(46)
    ops, writes = [], []
    for _ in range(1000):
        t0 = rng.randrange(0, 400) / 2.0
        t1 = None if rng.random() < 0.02 else t0 + rng.randrange(0, 8) / 2.0
        status = "ok" if rng.random() < 0.95 else "error"
        written = object() if rng.random() < 0.9 else rng.choice(writes or [None])
        w = op(0, "write", "b/hot", t0, t1, written, status=status,
               store_version=rng.randrange(0, 50))
        writes.append(written)
        ops.append(w)
    for _ in range(1000):
        t0 = rng.randrange(0, 400) / 2.0
        t1 = t0 + rng.randrange(0, 4) / 2.0
        status = "ok" if rng.random() < 0.9 else "miss"
        ops.append(op(0, "read", "b/hot", t0, t1, rng.choice(writes), status=status))
    rng.shuffle(ops)
    for seq, record in enumerate(ops, 1):
        record.seq = seq
    violations = check_ops(ops)
    assert violations == reference.check_ops(ops)
    assert {v.invariant for v in violations} >= {"stale-read", "version-order"}
