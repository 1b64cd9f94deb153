"""What the history checker costs: bounded transient memory, and a hot
key (many writes, many reads) still judged as the oracle judges it.

The memory bound is a ratio to the records themselves: grouping the
history by one sort of references keeps the checker's transient
structures a small fraction of the ``OpRecord``s it reads, where the two
per-key dict-of-lists groupings it replaced peaked at about 1.5x.
"""

import random
import sys
import tracemalloc

from repro.checks import OpRecord
from repro.checks.invariants import check_history, check_ops
from repro.core import OFCPlatform
from repro.faas.platform import PlatformConfig
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


def test_check_history_transient_is_a_quarter_of_the_history_at_most():
    ops = chaos_shaped_history()
    assert 19_000 <= len(ops) <= 21_000
    ofc = settled(ops)
    history_bytes = sum(sys.getsizeof(o) for o in ops)
    tracemalloc.start()
    try:
        violations = check_history(ops, ofc)
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
