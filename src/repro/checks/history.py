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
It is also cheap enough to leave on in perf-sensitive chaos cells:
records are slotted plain objects built by a flattened constructor
(no dataclass ``__init__`` argument parsing), the request-derived
fields are resolved once per client instead of once per op, and the
read/write/delete counters stream into the recorder so a snapshot
never scans the history.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from repro.checks.invariants import count_by_invariant, Violation
from repro.faas.dataclient import DataClient
from repro.kvcache.errors import NoSuchKey
from repro.storage.errors import NoSuchObject, StoreUnavailable


class OpRecord:
    """One data-plane operation as seen at the dataclient seam.

    A slotted plain class (not a dataclass): chaos cells allocate one
    per data-plane op, so the record stays as close to a bare struct
    as Python allows while keeping the keyword constructor.
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


class RecordingDataClient(DataClient):
    """Wraps a real dataclient, appending an :class:`OpRecord` per op."""

    def __init__(self, inner: DataClient, record, recorder: "HistoryRecorder"):
        self.inner = inner
        self.record = record
        self.recorder = recorder
        # The invocation request never changes under a live client, so
        # resolve its identity fields once instead of per op.
        request = getattr(record, "request", None)
        self._tenant = getattr(request, "tenant", "") or ""
        self._request_id = getattr(request, "request_id", 0)
        self._pipeline_id = getattr(request, "pipeline_id", None)
        self._final_stage = getattr(request, "final_stage", True)

    def _begin(self, op: str, bucket: str, name: str) -> OpRecord:
        # Flattened OpRecord construction (the ``Kernel.timeout`` trick):
        # one allocation plus direct slot stores, skipping the keyword
        # __init__ on the hottest path in a recorded run.
        recorder = self.recorder
        recorder._seq = seq = recorder._seq + 1
        if op == "read":
            recorder._reads += 1
        elif op == "write":
            recorder._writes += 1
        else:
            recorder._deletes += 1
        rec = OpRecord.__new__(OpRecord)
        rec.seq = seq
        rec.op = op
        rec.key = bucket + "/" + name
        rec.t_start = recorder.kernel.now
        rec.t_ack = None
        rec.status = "ok"
        rec.error = None
        rec.payload = None
        rec.size = 0
        rec.version = None
        rec.store_version = None
        rec.payload_missing = False
        rec.tenant = self._tenant
        rec.request_id = self._request_id
        rec.pipeline_id = self._pipeline_id
        rec.final_stage = self._final_stage
        rec.intermediate = False
        recorder.ops.append(rec)
        return rec

    def _fail(self, rec: OpRecord, exc: BaseException) -> None:
        rec.t_ack = self.recorder.kernel.now
        rec.error = type(exc).__name__
        if isinstance(exc, (NoSuchObject, NoSuchKey)):
            rec.status = "miss"
        elif isinstance(exc, StoreUnavailable):
            rec.status = "unavailable"
        else:
            rec.status = "error"

    def read(self, bucket: str, name: str) -> Generator:
        rec = self._begin("read", bucket, name)
        try:
            obj = yield from self.inner.read(bucket, name)
        except BaseException as exc:
            self._fail(rec, exc)
            raise
        rec.t_ack = self.recorder.kernel.now
        rec.payload = obj.payload
        rec.size = obj.meta.size
        rec.version = obj.meta.version
        rec.payload_missing = obj.payload is None and obj.meta.size > 0
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
        rec = self._begin("write", bucket, name)
        rec.payload = payload
        rec.size = size
        rec.intermediate = intermediate
        if pipeline_id is not None:
            rec.pipeline_id = pipeline_id
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
            self._fail(rec, exc)
            raise
        rec.t_ack = self.recorder.kernel.now
        store = self.recorder.store
        if store is not None and store.contains(bucket, name):
            rec.store_version = store.peek_meta(bucket, name).version
        return result

    def delete(self, bucket: str, name: str) -> Generator:
        rec = self._begin("delete", bucket, name)
        try:
            result = yield from self.inner.delete(bucket, name)
        except BaseException as exc:
            self._fail(rec, exc)
            raise
        rec.t_ack = self.recorder.kernel.now
        return result


class HistoryRecorder:
    """Captures the full dataclient history of one deployment.

    Wraps ``ofc.platform.data_client_factory`` so every invocation's
    client is a :class:`RecordingDataClient`; registers itself as
    ``ofc.checks_recorder`` so the platform's always-on ``checks``
    collector surfaces the op counts and any violations attached after
    a checker pass.  Every record is kept: the end-state checker
    audits the full history.
    """

    def __init__(self, ofc):
        self.ofc = ofc
        self.kernel = ofc.kernel
        self.store = getattr(ofc, "store", None)
        self.ops: List[OpRecord] = []
        #: Filled by the chaos/faults drivers after a checker pass.
        self.violations: List[Violation] = []
        self._seq = 0
        self._reads = 0
        self._writes = 0
        self._deletes = 0
        self._inner_factory = ofc.platform.data_client_factory
        ofc.platform.data_client_factory = self._make_client
        ofc.checks_recorder = self

    def _make_client(self, invoker, record) -> RecordingDataClient:
        return RecordingDataClient(
            self._inner_factory(invoker, record), record, self
        )

    def snapshot(self) -> Dict[str, Any]:
        """The ``checks`` collector payload (O(1): streamed counters)."""
        return {
            "attached": 1,
            "ops": self._seq,
            "reads": self._reads,
            "writes": self._writes,
            "deletes": self._deletes,
            "violations_total": len(self.violations),
            "violations": count_by_invariant(self.violations),
        }
