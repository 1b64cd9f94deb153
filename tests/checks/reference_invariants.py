"""The history checker as it stood before the one-walk rewrite: the oracle.

Two per-key dict-of-lists groupings, a sort of every key per pass, and a
rescan of a key's writes for every ok read.  ``tests/checks/
test_checker_oracle.py`` holds :mod:`repro.checks.invariants` to these
functions, violation for violation, detail and order included.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.checks.history import OpRecord
from repro.checks.invariants import Violation


def _overlaps(op: OpRecord, read: OpRecord) -> bool:
    """True when ``op`` was in flight at any point during ``read``."""
    end = read.t_ack if read.t_ack is not None else read.t_start
    op_end = op.t_ack
    return op.t_start <= end and (op_end is None or op_end >= read.t_start)


def _last_acked_before(ops: List[OpRecord], t: float) -> Optional[OpRecord]:
    last = None
    for op in ops:
        if op.acked and op.t_ack <= t:
            if last is None or (op.t_ack, op.seq) > (last.t_ack, last.seq):
                last = op
    return last


def _valid_payloads(writes: List[OpRecord], read: OpRecord) -> List[Any]:
    """Payloads a read may legally return: the last acked write before
    it started, plus every write concurrent with the read."""
    valid: List[Any] = []
    last = _last_acked_before(writes, read.t_start)
    if last is not None:
        valid.append(last.payload)
    for op in writes:
        if _overlaps(op, read):
            valid.append(op.payload)
    return valid


def check_ops(ops: List[OpRecord]) -> List[Violation]:
    """Pure history invariants (no deployment needed)."""
    violations: List[Violation] = []
    by_key: Dict[str, Dict[str, List[OpRecord]]] = {}
    for op in ops:
        slot = by_key.setdefault(
            op.key, {"read": [], "write": [], "delete": []}
        )
        slot[op.op].append(op)

    for key, slot in sorted(by_key.items()):
        writes, deletes = slot["write"], slot["delete"]
        mutations = writes + deletes
        for read in slot["read"]:
            t_anchor = read.t_ack if read.t_ack is not None else read.t_start
            if read.status == "ok" and read.payload_missing:
                violations.append(
                    Violation(
                        "shadow-read",
                        key,
                        f"ok read returned no payload for {read.size} B "
                        "object (stale RSDS shadow served)",
                        t_anchor,
                        read.seq,
                    )
                )
                continue
            if read.status == "ok" and writes:
                valid = _valid_payloads(writes, read)
                if valid and not any(p is read.payload for p in valid):
                    if any(_overlaps(d, read) for d in deletes):
                        continue  # racing a delete: content undefined
                    violations.append(
                        Violation(
                            "stale-read",
                            key,
                            "ok read returned a payload matching none of "
                            f"the {len(valid)} admissible write(s)",
                            t_anchor,
                            read.seq,
                        )
                    )
                continue
            if read.status == "miss" and mutations:
                if any(_overlaps(d, read) for d in deletes):
                    continue  # concurrent delete: a miss is legitimate
                last = _last_acked_before(mutations, read.t_start)
                if last is None or last.op != "write":
                    continue
                if (
                    read.pipeline_id is not None
                    and last.pipeline_id == read.pipeline_id
                ):
                    violations.append(
                        Violation(
                            "pipeline-ryw",
                            key,
                            "pipeline read missed a key an earlier stage "
                            f"acked at t={last.t_ack:.3f}",
                            t_anchor,
                            read.seq,
                        )
                    )
                else:
                    violations.append(
                        Violation(
                            "lost-write",
                            key,
                            "read missed a key whose last acked op was a "
                            f"write at t={last.t_ack:.3f}",
                            t_anchor,
                            read.seq,
                        )
                    )
        # Version monotonicity across non-overlapping acked writes.
        versioned = sorted(
            (w for w in writes if w.acked and w.store_version is not None),
            key=lambda w: (w.t_ack, w.seq),
        )
        for prev, cur in zip(versioned, versioned[1:]):
            if cur.t_start < prev.t_ack:
                continue  # overlapping writes may ack out of order
            if cur.store_version < prev.store_version:
                violations.append(
                    Violation(
                        "version-order",
                        key,
                        f"RSDS version went backwards: {prev.store_version}"
                        f" -> {cur.store_version}",
                        cur.t_ack,
                        cur.seq,
                    )
                )
    return violations


def check_end_state(ops: List[OpRecord], ofc) -> List[Violation]:
    """End-state invariants over the settled deployment."""
    violations: List[Violation] = []
    store = ofc.store
    backend = ofc.backend
    now = ofc.kernel.now

    by_key: Dict[str, List[OpRecord]] = {}
    for op in ops:
        by_key.setdefault(op.key, []).append(op)

    for key, key_ops in sorted(by_key.items()):
        writes = [o for o in key_ops if o.op == "write" and o.acked]
        if not writes:
            continue
        last = max(writes, key=lambda w: (w.t_ack, w.seq))
        if last.intermediate:
            continue  # pipeline-internal: deleted by design (§6.3)
        deletes = [o for o in key_ops if o.op == "delete" and o.acked]
        if any(d.t_ack >= last.t_start for d in deletes):
            continue  # deleted after (or racing) the last write
        if last.payload is None:
            continue  # nothing to fingerprint
        valid = [w.payload for w in writes if w.t_ack >= last.t_start]
        bucket, _sep, name = key.partition("/")
        if store.contains(bucket, name):
            stored = store._object(bucket, name)
            if any(p is stored.payload for p in valid):
                continue  # durable with an admissible payload
        cached = backend.peek(key)
        if cached is not None and any(p is cached.value for p in valid):
            # Present but only in the cache: the dirty-final audit below
            # reports it if the write-back never completed.
            continue
        violations.append(
            Violation(
                "durability",
                key,
                f"acked write at t={last.t_ack:.3f} is in neither the "
                "RSDS nor the cache",
                now,
                last.seq,
            )
        )

    for _node, obj in backend.objects():
        if obj.flags.get("dirty", False) and obj.flags.get("final", False):
            violations.append(
                Violation(
                    "dirty-final",
                    obj.key,
                    "final output still dirty in the cache after settle "
                    "(write-back lost or stuck)",
                    now,
                )
            )

    snap = backend.stats_snapshot()
    if snap.get("live_servers", 0) == len(backend.node_ids):
        under = snap.get("under_replicated", 0)
        if under:
            violations.append(
                Violation(
                    "replication",
                    "*",
                    f"{under} object(s) under-replicated with every node "
                    "live and repair complete",
                    now,
                )
            )
    return violations


def check_history(ops: List[OpRecord], ofc=None) -> List[Violation]:
    """Full checker pass: history invariants plus (when a deployment is
    supplied) the end-state audit.  Returns violations sorted by time."""
    violations = check_ops(ops)
    if ofc is not None:
        violations.extend(check_end_state(ops, ofc))
    return sorted(violations, key=lambda v: (v.t, v.seq or 0, v.invariant))
