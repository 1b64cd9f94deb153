"""History recorder at the dataclient seam.

The platform hands every invocation a :class:`~repro.faas.dataclient.
DataClient`; wrapping the factory captures the complete data-plane
history of a run — every read, write and delete a function body issues,
with simulated start/ack times, outcome, and the payload *identity*
(payload objects are descriptor instances that flow by reference
through the cache, the store and the persistor, so ``is`` comparisons
across sources are exact where version counters are not: cache versions
reset when an object is refilled after a crash).

The recorder is pure bookkeeping: it never yields, draws no randomness
and schedules nothing, so attaching it does not perturb the simulated
schedule — a run with the recorder is bit-identical to one without.
It is also cheap enough to leave on in perf-sensitive chaos cells: the
history is one :class:`History` of columns, not an object per op.  Per
op it keeps a code byte (op, status and flags), the start/ack times in
an ``array('d')``, size, versions and request id in ``array('q')``s,
and references to the key, the payload and the tenant name; errors,
pipeline ids and out-of-order ``seq`` numbers live in sparse dicts.
Read keys are interned (a cell reads the same few hundred inputs
thousands of times).  About 100 B per op stay alive.  Indexing or
iterating a ``History`` yields :class:`OpRecord` views, and the
read/write/delete counters stream into it, so a snapshot never scans
the history.
"""

from __future__ import annotations

import sys
from array import array
from typing import (
    Any,
    Dict,
    Generator,
    Iterable,
    Iterator,
    List,
    Optional,
    TYPE_CHECKING,
)

from repro.faas.dataclient import DataClient
from repro.kvcache.errors import NoSuchKey
from repro.storage.errors import NoSuchObject, StoreUnavailable

if TYPE_CHECKING:
    from repro.checks.invariants import Violation

#: The code byte: bits 0-1 the op, 2-3 the status, then three flags.
OPS = ("read", "write", "delete")
STATUSES = ("ok", "miss", "unavailable", "error")
READ, WRITE, DELETE = 0, 1, 2
KIND = 0b11
MISS, UNAVAILABLE, ERROR = 1 << 2, 2 << 2, 3 << 2
STATUS = 0b1100
#: An ok read whose payload was missing despite a nonzero size.
MISSING = 1 << 4
INTERMEDIATE = 1 << 5
#: The op's invocation is not the last stage of its pipeline.
NOT_FINAL = 1 << 6
_OP_CODES = {name: code for code, name in enumerate(OPS)}
_STATUS_CODES = {name: code << 2 for code, name in enumerate(STATUSES)}
#: ``t_ack`` of an op that never acked (NaN: no simulated time equals it).
UNACKED = float("nan")
#: ``version``/``store_version`` when there is none.
NO_VERSION = -1


class OpRecord:
    """One data-plane operation as seen at the dataclient seam.

    What a :class:`History` yields per op, and what tests build by hand
    (``History(records)`` takes a list of them).  A slotted plain class
    with a keyword constructor.
    """

    __slots__ = (
        "seq",
        "op",  # "read" | "write" | "delete"
        "key",
        "t_start",
        "t_ack",
        #: "ok", "miss" (NoSuchKey/NoSuchObject), "unavailable"
        #: (StoreUnavailable), or "error" (anything else).
        "status",
        "error",
        #: Payload object reference (writes: what was written; ok reads:
        #: what came back).  Identity is the cross-source fingerprint.
        "payload",
        "size",
        #: Version of the returned object (reads; source-relative).
        "version",
        #: RSDS metadata version observed at ack (writes; the store
        #: counter survives crashes/refills, unlike cache versions).
        "store_version",
        #: An ok read whose payload was missing despite a nonzero size —
        #: the shape of a stale shadow served to a function body.
        "payload_missing",
        "tenant",
        "request_id",
        "pipeline_id",
        "final_stage",
        "intermediate",
    )

    def __init__(
        self,
        seq: int,
        op: str,
        key: str,
        t_start: float,
        t_ack: Optional[float] = None,
        status: str = "ok",
        error: Optional[str] = None,
        payload: Any = None,
        size: int = 0,
        version: Optional[int] = None,
        store_version: Optional[int] = None,
        payload_missing: bool = False,
        tenant: str = "",
        request_id: int = 0,
        pipeline_id: Optional[str] = None,
        final_stage: bool = True,
        intermediate: bool = False,
    ):
        self.seq = seq
        self.op = op
        self.key = key
        self.t_start = t_start
        self.t_ack = t_ack
        self.status = status
        self.error = error
        self.payload = payload
        self.size = size
        self.version = version
        self.store_version = store_version
        self.payload_missing = payload_missing
        self.tenant = tenant
        self.request_id = request_id
        self.pipeline_id = pipeline_id
        self.final_stage = final_stage
        self.intermediate = intermediate

    @property
    def acked(self) -> bool:
        return self.status == "ok" and self.t_ack is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OpRecord(seq={self.seq}, op={self.op!r}, key={self.key!r}, "
            f"t_start={self.t_start}, t_ack={self.t_ack}, "
            f"status={self.status!r})"
        )


def _version(value: Optional[int]) -> int:
    return NO_VERSION if value is None else value


def _optional(value: int) -> Optional[int]:
    return None if value == NO_VERSION else value


class History:
    """The data-plane ops of a run as columns, one entry per op in
    recorded order; ``seq`` is the position plus one unless ``seqs``
    says otherwise (records appended by hand keep their own).

    ``len``, iteration and indexing work as on a list of
    :class:`OpRecord`; the checker reads the columns directly.
    """

    __slots__ = (
        "codes",
        "t_start",
        "t_ack",
        "size",
        "version",
        "store_version",
        "request_ids",
        "keys",
        "payloads",
        "tenants",
        "errors",
        "pipeline_ids",
        "seqs",
        #: Ops per kind, indexed by READ/WRITE/DELETE.
        "counts",
        "_read_keys",
    )

    def __init__(self, records: Iterable[OpRecord] = ()):
        self.codes = bytearray()
        self.t_start = array("d")
        self.t_ack = array("d")
        self.size = array("q")
        self.version = array("q")
        self.store_version = array("q")
        self.request_ids = array("q")
        self.keys: List[str] = []
        self.payloads: List[Any] = []
        self.tenants: List[str] = []
        self.errors: Dict[int, str] = {}
        self.pipeline_ids: Dict[int, str] = {}
        self.seqs: Dict[int, int] = {}
        self.counts = [0, 0, 0]
        self._read_keys: Dict[str, str] = {}
        for record in records:
            self.append(record)

    def begin(
        self,
        code: int,
        key: str,
        t_start: float,
        payload: Any,
        size: int,
        tenant: str,
        request_id: int,
        pipeline_id: Optional[str],
    ) -> int:
        """Append an unacked op; returns its position."""
        pos = len(self.codes)
        kind = code & KIND
        if kind == READ:
            key = self._read_keys.setdefault(key, key)
        self.counts[kind] += 1
        self.codes.append(code)
        self.t_start.append(t_start)
        self.t_ack.append(UNACKED)
        self.size.append(size)
        self.version.append(NO_VERSION)
        self.store_version.append(NO_VERSION)
        self.request_ids.append(request_id)
        self.keys.append(key)
        self.payloads.append(payload)
        self.tenants.append(tenant)
        if pipeline_id is not None:
            self.pipeline_ids[pos] = pipeline_id
        return pos

    def append(self, record: OpRecord) -> None:
        """Append a record built elsewhere, every field as it stands."""
        code = _OP_CODES[record.op] | _STATUS_CODES[record.status]
        if record.payload_missing:
            code |= MISSING
        if record.intermediate:
            code |= INTERMEDIATE
        if not record.final_stage:
            code |= NOT_FINAL
        pos = self.begin(
            code,
            record.key,
            record.t_start,
            record.payload,
            record.size,
            record.tenant,
            record.request_id,
            record.pipeline_id,
        )
        if record.t_ack is not None:
            self.t_ack[pos] = record.t_ack
        self.version[pos] = _version(record.version)
        self.store_version[pos] = _version(record.store_version)
        if record.error is not None:
            self.errors[pos] = record.error
        if record.seq != pos + 1:
            self.seqs[pos] = record.seq

    def seq(self, pos: int) -> int:
        return self.seqs.get(pos, pos + 1)

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, pos: int) -> OpRecord:
        n = len(self.codes)
        if pos < 0:
            pos += n
        if not 0 <= pos < n:
            raise IndexError("history index out of range")
        code = self.codes[pos]
        t_ack = self.t_ack[pos]
        return OpRecord(
            seq=self.seq(pos),
            op=OPS[code & KIND],
            key=self.keys[pos],
            t_start=self.t_start[pos],
            t_ack=None if t_ack != t_ack else t_ack,
            status=STATUSES[(code & STATUS) >> 2],
            error=self.errors.get(pos),
            payload=self.payloads[pos],
            size=self.size[pos],
            version=_optional(self.version[pos]),
            store_version=_optional(self.store_version[pos]),
            payload_missing=bool(code & MISSING),
            tenant=self.tenants[pos],
            request_id=self.request_ids[pos],
            pipeline_id=self.pipeline_ids.get(pos),
            final_stage=not code & NOT_FINAL,
            intermediate=bool(code & INTERMEDIATE),
        )

    def __iter__(self) -> Iterator[OpRecord]:
        return map(self.__getitem__, range(len(self.codes)))

    def __sizeof__(self) -> int:
        """The history's own bytes: its columns and sparse dicts, not
        the keys, payloads and tenant names they refer to."""
        columns = (getattr(self, name) for name in self.__slots__)
        return object.__sizeof__(self) + sum(map(sys.getsizeof, columns))


class RecordingDataClient(DataClient):
    """Wraps a real dataclient, appending one op to the history per call."""

    def __init__(self, inner: DataClient, record, recorder: "HistoryRecorder"):
        self.inner = inner
        self.recorder = recorder
        self.history = recorder.ops
        # The invocation request never changes under a live client, so
        # resolve its identity fields once instead of per op.
        request = getattr(record, "request", None)
        self._tenant = getattr(request, "tenant", "") or ""
        self._request_id = getattr(request, "request_id", 0)
        self._pipeline_id = getattr(request, "pipeline_id", None)
        self._flags = 0 if getattr(request, "final_stage", True) else NOT_FINAL

    def _fail(self, pos: int, exc: BaseException) -> None:
        history = self.history
        history.t_ack[pos] = self.recorder.kernel.now
        history.errors[pos] = type(exc).__name__
        if isinstance(exc, (NoSuchObject, NoSuchKey)):
            history.codes[pos] |= MISS
        elif isinstance(exc, StoreUnavailable):
            history.codes[pos] |= UNAVAILABLE
        else:
            history.codes[pos] |= ERROR

    def read(self, bucket: str, name: str) -> Generator:
        history = self.history
        pos = history.begin(
            READ | self._flags,
            bucket + "/" + name,
            self.recorder.kernel.now,
            None,
            0,
            self._tenant,
            self._request_id,
            self._pipeline_id,
        )
        try:
            obj = yield from self.inner.read(bucket, name)
        except BaseException as exc:
            self._fail(pos, exc)
            raise
        history.t_ack[pos] = self.recorder.kernel.now
        payload = history.payloads[pos] = obj.payload
        meta = obj.meta
        history.size[pos] = meta.size
        history.version[pos] = _version(meta.version)
        if payload is None and meta.size > 0:
            history.codes[pos] |= MISSING
        return obj

    def write(
        self,
        bucket: str,
        name: str,
        payload: Any,
        size: int,
        content_type: str = "application/octet-stream",
        user_meta: Optional[Dict[str, Any]] = None,
        intermediate: bool = False,
        pipeline_id: Optional[str] = None,
    ) -> Generator:
        history = self.history
        pos = history.begin(
            WRITE | self._flags | (INTERMEDIATE if intermediate else 0),
            bucket + "/" + name,
            self.recorder.kernel.now,
            payload,
            size,
            self._tenant,
            self._request_id,
            self._pipeline_id if pipeline_id is None else pipeline_id,
        )
        try:
            result = yield from self.inner.write(
                bucket,
                name,
                payload,
                size,
                content_type=content_type,
                user_meta=user_meta,
                intermediate=intermediate,
                pipeline_id=pipeline_id,
            )
        except BaseException as exc:
            self._fail(pos, exc)
            raise
        history.t_ack[pos] = self.recorder.kernel.now
        store = self.recorder.store
        meta = None if store is None else store.find_meta(bucket, name)
        if meta is not None:
            history.store_version[pos] = meta.version
        return result

    def delete(self, bucket: str, name: str) -> Generator:
        history = self.history
        pos = history.begin(
            DELETE | self._flags,
            bucket + "/" + name,
            self.recorder.kernel.now,
            None,
            0,
            self._tenant,
            self._request_id,
            self._pipeline_id,
        )
        try:
            result = yield from self.inner.delete(bucket, name)
        except BaseException as exc:
            self._fail(pos, exc)
            raise
        history.t_ack[pos] = self.recorder.kernel.now
        return result


class HistoryRecorder:
    """Captures the full dataclient history of one deployment.

    Wraps ``ofc.platform.data_client_factory`` so every invocation's
    client is a :class:`RecordingDataClient`; registers itself as
    ``ofc.checks_recorder`` so the platform's always-on ``checks``
    collector surfaces the op counts and any violations attached after
    a checker pass.  Every op is kept: the end-state checker audits the
    full history.
    """

    def __init__(self, ofc):
        self.ofc = ofc
        self.kernel = ofc.kernel
        self.store = getattr(ofc, "store", None)
        self.ops = History()
        #: Filled by the chaos/faults drivers after a checker pass.
        self.violations: List[Violation] = []
        self._inner_factory = ofc.platform.data_client_factory
        ofc.platform.data_client_factory = self._make_client
        ofc.checks_recorder = self

    def _make_client(self, invoker, record) -> RecordingDataClient:
        return RecordingDataClient(
            self._inner_factory(invoker, record), record, self
        )

    def snapshot(self) -> Dict[str, Any]:
        """The ``checks`` collector payload (O(1): streamed counters)."""
        # Imported here: the checker imports this module.
        from repro.checks.invariants import count_by_invariant

        reads, writes, deletes = self.ops.counts
        return {
            "attached": 1,
            "ops": len(self.ops),
            "reads": reads,
            "writes": writes,
            "deletes": deletes,
            "violations_total": len(self.violations),
            "violations": count_by_invariant(self.violations),
        }
