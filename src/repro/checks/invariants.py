"""Invariant checker over a recorded dataclient history.

Consistency is judged from the *function body's* point of view — the
only one the paper's transparency claim is about.  The checker never
compares raw version counters across sources (cache versions reset when
an object is refilled after a crash); instead it uses payload object
identity, which flows by reference through the cache, the RSDS and the
persistor, plus the RSDS metadata version, whose counter survives every
fault.

History invariants (pure, testable without a deployment):

* **shadow-read** — an ok read returned no payload for a nonzero-size
  object: a stale RSDS shadow leaked to a function body;
* **stale-read** — an ok read returned a payload that is neither the
  last acked write's nor any concurrent write's;
* **pipeline-ryw** — a read missed a key an earlier stage of the same
  pipeline had already acked (read-your-writes within a pipeline);
* **lost-write** — a read missed a key whose last acked data-plane op
  was a write (general read-after-ack);
* **version-order** — RSDS versions observed at ack went backwards
  across non-overlapping writes (the store object was destroyed and
  recreated behind the proxy's back).

End-state invariants (need the settled deployment):

* **durability** — the last acked non-intermediate write of a key is
  in neither the RSDS nor the cache: an acked write was lost;
* **dirty-final** — a final output still sits dirty in the cache after
  the settle drain (generalizes the old ofc-only dirty-finals audit to
  any backend);
* **replication** — with every node back up and repair complete, the
  backend still reports under-replicated objects.

Both kinds share one walk over a :class:`~repro.checks.history.History`
(a list of records is appended into one first): one stable argsort of
the key column, then one pass over its runs in key order, each key's ops
in recorded order.  Most keys are judged from the columns alone (a key
nothing writes can only break shadow-read; a key written once and never
touched again needs only the durability audit); any other key is split
once into reads, writes and deletes of :class:`OpRecord` views for every
rule.  A read scans its own key's writes and deletes, so a key costs
reads x writes; every benchmark history writes a key at most once.
Transient memory is the argsort (the key column as an object array and
the int64 order) plus one key's views: ~0.2x the history's own bytes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from operator import attrgetter
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.checks.history import (
    History,
    INTERMEDIATE,
    KIND,
    MISSING,
    OpRecord,
    READ,
    STATUS,
    WRITE,
)

#: Ack order; the recorder numbers ``seq`` uniquely, so it breaks ties.
_ACK_ORDER = attrgetter("t_ack", "seq")
#: The code bits of an ok read that came back without its payload.
_SHADOW = KIND | STATUS | MISSING
Ops = Union[History, List[OpRecord]]


@dataclass(frozen=True)
class Violation:
    """One invariant failure, anchored to the op that exposed it."""

    invariant: str
    key: str
    detail: str
    t: float
    seq: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


def _overlaps(op: OpRecord, read: OpRecord) -> bool:
    """True when ``op`` was in flight at any point during ``read``."""
    end = read.t_ack if read.t_ack is not None else read.t_start
    op_end = op.t_ack
    return op.t_start <= end and (op_end is None or op_end >= read.t_start)


def _last_acked_before(ops: List[OpRecord], t: float) -> Optional[OpRecord]:
    """The op acked last, in ``(t_ack, seq)`` order, by ``t``."""
    last = None
    for op in ops:
        if op.acked and op.t_ack <= t:
            if last is None or (op.t_ack, op.seq) > (last.t_ack, last.seq):
                last = op
    return last


def _shadow_detail(size: int) -> str:
    return f"ok read returned no payload for {size} B object (stale RSDS shadow served)"


def _read_rule(read: OpRecord, writes, deletes) -> Optional[Tuple[str, str]]:
    """The history invariant a read breaks, and the detail, if any."""
    if read.status == "ok":
        if read.payload_missing:
            return "shadow-read", _shadow_detail(read.size)
        if not writes:
            return None  # no write to be stale against
        # Admissible: the last write acked before the read, and racing ones.
        valid = [w.payload for w in writes if _overlaps(w, read)]
        last = _last_acked_before(writes, read.t_start)
        if last is not None:
            valid.append(last.payload)
        if not valid or any(p is read.payload for p in valid):
            return None
        if any(_overlaps(d, read) for d in deletes):
            return None  # racing a delete: content undefined
        return "stale-read", (
            "ok read returned a payload matching none of "
            f"the {len(valid)} admissible write(s)"
        )
    if read.status != "miss" or any(_overlaps(d, read) for d in deletes):
        return None  # a concurrent delete makes a miss legitimate
    last = _last_acked_before(writes + deletes, read.t_start)
    if last is None or last.op != "write":
        return None  # the last acked data-plane op was not a write
    if read.pipeline_id is not None and last.pipeline_id == read.pipeline_id:
        return "pipeline-ryw", (
            "pipeline read missed a key an earlier stage "
            f"acked at t={last.t_ack:.3f}"
        )
    return "lost-write", (
        f"read missed a key whose last acked op was a write at t={last.t_ack:.3f}"
    )


def _version_rule(key: str, writes: List[OpRecord], out: List[Violation]) -> None:
    """RSDS versions at ack never go backwards across acked writes that
    do not overlap (overlapping writes may ack out of order)."""
    versioned = [w for w in writes if w.acked and w.store_version is not None]
    versioned.sort(key=_ACK_ORDER)
    for prev, cur in zip(versioned, versioned[1:]):
        if cur.t_start >= prev.t_ack and cur.store_version < prev.store_version:
            detail = f"RSDS version went backwards: {prev.store_version}"
            detail += f" -> {cur.store_version}"
            out.append(Violation("version-order", key, detail, cur.t_ack, cur.seq))


def _durable(key: str, payloads: List[Any], ofc) -> bool:
    """One of ``payloads`` is in the RSDS, or (until the dirty-final
    audit says otherwise) in the cache."""
    bucket, _sep, name = key.partition("/")
    if ofc.store.contains(bucket, name):
        stored = ofc.store._object(bucket, name).payload
        if any(p is stored for p in payloads):
            return True  # durable with an admissible payload
    cached = ofc.backend.peek(key)
    # Present but only in the cache: the dirty-final audit reports it
    # if the write-back never completed.
    return cached is not None and any(p is cached.value for p in payloads)


def _lost(key: str, t_ack: float, seq: int, ofc) -> Violation:
    detail = f"acked write at t={t_ack:.3f} is in neither the RSDS nor the cache"
    return Violation("durability", key, detail, ofc.kernel.now, seq)


def _durability_rule(key: str, writes, deletes, ofc, out: List[Violation]) -> None:
    """The key's last acked write is in the RSDS or the cache, unless it
    is intermediate (deleted by design, §6.3), deleted after (or racing)
    its start, or has no payload to fingerprint."""
    last = _last_acked_before(writes, float("inf"))
    if last is None or last.intermediate or last.payload is None:
        return
    if any(d.acked and d.t_ack >= last.t_start for d in deletes):
        return
    # Admissible: every write acked since the last one started.
    valid = [w.payload for w in writes if w.acked and w.t_ack >= last.t_start]
    if not _durable(key, valid, ofc):
        out.append(_lost(key, last.t_ack, last.seq, ofc))


def _judge(ops: History, key: str, run: List[int], history: bool, ofc, found, lost):
    """Every rule on one key's ops (positions, in recorded order).

    Most keys are judged from the columns: a key no op writes can break
    only shadow-read, and a key written once and never touched again
    needs only the durability audit.  Any other key is judged on
    :class:`OpRecord` views of its ops.
    """
    codes = ops.codes
    n_writes = sum(codes[p] & KIND == WRITE for p in run)
    if not n_writes:
        if history:
            for p in run:
                if codes[p] & _SHADOW == READ | MISSING:
                    t = ops.t_ack[p]
                    t = ops.t_start[p] if t != t else t
                    detail = _shadow_detail(ops.size[p])
                    found.append(Violation("shadow-read", key, detail, t, ops.seq(p)))
        return
    if len(run) == 1:
        (p,) = run
        t_ack = ops.t_ack[p]
        # Only an acked (ok, with an ack time) final write is audited.
        if ofc is None or codes[p] & (STATUS | INTERMEDIATE) or t_ack != t_ack:
            return
        payload = ops.payloads[p]
        if payload is not None and not _durable(key, [payload], ofc):
            lost.append(_lost(key, t_ack, ops.seq(p), ofc))
        return
    reads, writes, deletes = split = [], [], []  # indexed by READ/WRITE/DELETE
    for p in run:
        split[codes[p] & KIND].append(ops[p])
    if history:
        for read in reads:
            broken = _read_rule(read, writes, deletes)
            if broken is not None:
                t = read.t_ack if read.t_ack is not None else read.t_start
                found.append(Violation(broken[0], key, broken[1], t, read.seq))
        if n_writes > 1:  # one write has no order to break
            _version_rule(key, writes, found)
    if ofc is not None:
        _durability_rule(key, writes, deletes, ofc, lost)


def _walk(ops: Ops, history: bool, ofc) -> Tuple[list, list]:
    """The one pass: the history violations (if ``history``) and the
    durability ones (if ``ofc`` is given), each list in key order.

    A list of records is appended into a :class:`History` first.  One
    stable argsort of the key column gives the key order; each key's
    positions stay in recorded order.
    """
    if not isinstance(ops, History):
        ops = History(ops)
    found: List[Violation] = []
    lost: List[Violation] = []
    keys = ops.keys
    if not keys:
        return found, lost
    order = np.argsort(np.array(keys, dtype=object), kind="stable")
    key = keys[order[0]]
    run: List[int] = []
    for pos in memoryview(order):
        if keys[pos] != key:
            _judge(ops, key, run, history, ofc, found, lost)
            key = keys[pos]
            run = []
        run.append(pos)
    _judge(ops, key, run, history, ofc, found, lost)
    return found, lost


def _audits(ofc) -> List[Violation]:
    """The dirty-final and replication audits of the settled deployment."""
    backend = ofc.backend
    now = ofc.kernel.now
    stuck = "final output still dirty in the cache after settle "
    stuck += "(write-back lost or stuck)"
    violations = [
        Violation("dirty-final", obj.key, stuck, now)
        for _node, obj in backend.objects()
        if obj.flags.get("dirty", False) and obj.flags.get("final", False)
    ]
    snap = backend.stats_snapshot()
    under = snap.get("under_replicated", 0)
    if under and snap.get("live_servers", 0) == len(backend.node_ids):
        detail = f"{under} object(s) under-replicated with every node live"
        detail += " and repair complete"
        violations.append(Violation("replication", "*", detail, now))
    return violations


def check_ops(ops: Ops) -> List[Violation]:
    """Pure history invariants (no deployment needed), in key order."""
    return _walk(ops, True, None)[0]


def check_end_state(ops: Ops, ofc) -> List[Violation]:
    """End-state invariants over the settled deployment."""
    return _walk(ops, False, ofc)[1] + _audits(ofc)


def check_history(ops: Ops, ofc=None) -> List[Violation]:
    """Full checker pass: history invariants plus (when a deployment is
    supplied) the end-state audit.  Returns violations sorted by time."""
    violations, lost = _walk(ops, True, ofc)
    if ofc is not None:
        violations += lost + _audits(ofc)
    return sorted(violations, key=lambda v: (v.t, v.seq or 0, v.invariant))


def count_by_invariant(violations: List[Violation]) -> Dict[str, int]:
    return dict(sorted(Counter(v.invariant for v in violations).items()))
