"""The platform facade: Controller, invocation lifecycle, pipelines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional

from repro import slotted
from repro.faas.dataclient import DataClient, DirectStoreClient
from repro.faas.errors import OOMKilled, ResourceExhausted
from repro.faas.invoker import Invoker
from repro.faas.keepalive import FixedKeepAlive, KeepAlivePolicy
from repro.faas.pipeline import Pipeline, PipelineRecord, StageRecord
from repro.faas.records import InvocationRecord, InvocationRequest
from repro.faas.registry import FunctionRegistry, FunctionSpec
from repro.faas.scheduler import HomeWorkerScheduler, Scheduler
from repro.sim.kernel import Kernel
from repro.sim.latency import PLATFORM_OVERHEAD
from repro.storage.errors import NoSuchObject, StoreUnavailable
from repro.storage.object_store import ObjectStore

#: OpenWhisk's permitted sandbox memory range ([64 MB, 2 GB], §5.1.1
#: and §7.2.1: 64 MB is the smallest configurable memory).  The upper
#: end is also the top of OFC's memory intervals and of a booking.
MIN_SANDBOX_MB = 64.0
MAX_SANDBOX_MB = 2048.0
#: Scheduling attempts after a failure (OOM kill/no room).
MAX_RETRIES = 2


@dataclass
class PlatformConfig:
    """Deployment parameters of the platform."""

    node_ids: List[str] = field(default_factory=lambda: [f"w{i}" for i in range(4)])
    node_memory_mb: float = 16384.0
    keepalive_s: float = 600.0


@slotted
@dataclass
class SizingDecision:
    """Outcome of the sizing policy for one invocation."""

    memory_mb: float
    should_cache: bool = True
    predicted_mb: Optional[float] = None
    features: Dict[str, Any] = field(default_factory=dict)


class FaaSPlatform:
    """OpenWhisk-like platform: public API for invocations and pipelines.

    OFC (and any other extension) customises behaviour exclusively via
    the hooks:

    * ``scheduler`` — node-selection policy;
    * ``sizing_policy`` — generator ``(request, spec, record) ->
      SizingDecision`` run on the critical path (OFC's Predictor);
    * ``data_client_factory`` — per-node :class:`DataClient` (OFC's
      rclib proxy);
    * ``monitor_factory`` — per-invocation memory monitor (OFC's
      Monitor);
    * ``completion_listeners`` — telemetry consumers (OFC's
      ModelTrainer);
    * ``pipeline_listeners`` — pipeline-end consumers (OFC's
      CacheAgent intermediate-data cleanup).
    """

    def __init__(
        self,
        kernel: Kernel,
        store: ObjectStore,
        config: Optional[PlatformConfig] = None,
        rng=None,
        scheduler: Optional[Scheduler] = None,
    ):
        self.kernel = kernel
        self.store = store
        self.config = config or PlatformConfig()
        self.rng = rng
        self.registry = FunctionRegistry()
        self.invokers: List[Invoker] = [
            Invoker(kernel, node_id, self.config.node_memory_mb, rng=rng)
            for node_id in self.config.node_ids
        ]
        self.set_keepalive_policy(FixedKeepAlive(self.config.keepalive_s))
        self.scheduler: Scheduler = scheduler or HomeWorkerScheduler()
        self.sizing_policy: Optional[Callable[..., Generator]] = None
        #: ``(invoker, record) -> DataClient`` — OFC installs rclib here.
        #: The stock client is stateless, so every attempt shares one.
        direct = DirectStoreClient(store)
        self.data_client_factory: Callable[..., DataClient] = (
            lambda invoker, record: direct
        )
        self.monitor_factory: Optional[Callable[..., Any]] = None
        self.completion_listeners: List[Callable[[InvocationRecord], None]] = []
        self.pipeline_listeners: List[Callable[[PipelineRecord], None]] = []
        self.pipeline_records: List[PipelineRecord] = []
        #: Invocations that ended ``failed`` (Table 2); the records
        #: themselves reach only the completion_listeners.
        self.failed_invocations = 0

    # -- deployment ---------------------------------------------------------

    def register_function(self, spec: FunctionSpec) -> None:
        self.registry.register(spec)

    def set_keepalive_policy(self, policy: KeepAlivePolicy) -> None:
        """Install a keep-alive policy on every invoker (see
        :mod:`repro.faas.keepalive`); the default is
        ``FixedKeepAlive(config.keepalive_s)``."""
        self.keepalive_policy = policy
        for invoker in self.invokers:
            invoker.keepalive_policy = policy

    def invoker_by_id(self, node_id: str) -> Invoker:
        for invoker in self.invokers:
            if invoker.node_id == node_id:
                return invoker
        raise KeyError(node_id)

    # -- invocation lifecycle ----------------------------------------------------

    def _clamp_memory(self, memory_mb: float) -> float:
        return min(MAX_SANDBOX_MB, max(MIN_SANDBOX_MB, memory_mb))

    def invoke(
        self, request: InvocationRequest
    ) -> Generator[Any, Any, InvocationRecord]:
        """Run one invocation to completion (public API)."""
        spec = self.registry.get(request.tenant, request.function)
        self.keepalive_policy.record_invocation(request.key, self.kernel.now)
        record = InvocationRecord(
            request=request,
            submitted_at=self.kernel.now,
            booked_memory_mb=spec.booked_memory_mb,
        )
        tracer = self.kernel.tracer
        span = (
            tracer.start(
                "faas.invoke", function=request.function, tenant=request.tenant
            )
            if tracer is not None
            else None
        )
        yield PLATFORM_OVERHEAD.sample(self.rng)
        if self.sizing_policy is not None:
            decision = yield from self.sizing_policy(request, spec, record)
            record.predicted_memory_mb = decision.predicted_mb
            record.should_cache = decision.should_cache
            record.features = decision.features
            memory_mb = self._clamp_memory(decision.memory_mb)
        else:
            # The booking, with SizingDecision's defaults for the rest.
            record.should_cache = True
            memory_mb = self._clamp_memory(spec.booked_memory_mb)

        excluded: set = set()
        # What ended the last attempt, as the record's error message.  The
        # text, not the exception: its traceback holds this frame, so
        # keeping it here would make the record, request, monitor and
        # data client cyclic garbage.
        failure = "ResourceExhausted: no worker node to schedule on"
        for _attempt in range(MAX_RETRIES + 1):
            node = self.scheduler.choose_node(
                request, memory_mb, self.invokers, exclude=excluded
            )
            if node is None:
                break
            monitor = None
            if self.monitor_factory is not None:
                monitor = self.monitor_factory(record, node)
            data_client = self.data_client_factory(node, record)
            try:
                yield from node.execute(spec, record, memory_mb, data_client, monitor)
                record.status = "ok"
                break
            except OOMKilled as exc:
                # §5.3.1: immediately retried with the limit raised to
                # the amount set by the tenant.
                failure = f"{type(exc).__name__}: {exc}"
                memory_mb = self._clamp_memory(spec.booked_memory_mb)
                record.retries += 1
                # Reset phase accounting: the retry is a fresh run.
                record.phases.extract = 0.0
                record.phases.transform = 0.0
                record.phases.load = 0.0
                record.bytes_in = 0
                record.bytes_out = 0
            except ResourceExhausted as exc:
                failure = f"{type(exc).__name__}: {exc}"
                excluded.add(node.node_id)
                record.retries += 1
            except (StoreUnavailable, NoSuchObject) as exc:
                # Data-plane failure (RSDS outage, missing input): the
                # invocation fails, the platform must not — retrying on
                # another node cannot help, and letting the exception
                # escape would tear down the whole driver. Found by the
                # chaos harness (rsds_outage episodes during load).
                failure = f"{type(exc).__name__}: {exc}"
                break
        if record.status != "ok":
            record.status = "failed"
            record.finished_at = self.kernel.now
            record.error = failure
            self.failed_invocations += 1
        if span is not None:
            span.finish(status=record.status, retries=record.retries)
        for listener in self.completion_listeners:
            listener(record)
        return record

    def submit(self, request: InvocationRequest):
        """Fire-and-track: returns the Process (an Event) of invoke()."""
        return self.kernel.process(
            self.invoke(request), name=f"invoke-{request.function}"
        )

    # -- pipelines -----------------------------------------------------------------

    def invoke_pipeline(
        self,
        pipeline: Pipeline,
        tenant: str,
        base_args: Optional[Dict[str, Any]] = None,
        input_refs: Optional[List[str]] = None,
        output_bucket: str = "outputs",
    ) -> Generator[Any, Any, PipelineRecord]:
        """Run a pipeline (fork-join per stage) to completion."""
        base_args = dict(base_args or {})
        pipeline_id = pipeline.new_id()
        prec = PipelineRecord(
            pipeline=pipeline.name,
            pipeline_id=pipeline_id,
            submitted_at=self.kernel.now,
        )
        tracer = self.kernel.tracer
        span = (
            tracer.start("faas.pipeline", pipeline=pipeline.name, tenant=tenant)
            if tracer is not None
            else None
        )
        prev_refs = list(input_refs or [])
        last = len(pipeline.stages) - 1
        for index, stage in enumerate(pipeline.stages):
            plans = stage.planner(prev_refs, base_args)
            stage_record = StageRecord(
                function=stage.function, started_at=self.kernel.now, finished_at=0.0
            )
            processes = []
            for args, input_ref in plans:
                args = dict(args)
                args["_stage_index"] = index
                request = InvocationRequest(
                    function=stage.function,
                    tenant=tenant,
                    args=args,
                    input_ref=input_ref,
                    output_bucket=output_bucket,
                    pipeline_id=pipeline_id,
                    final_stage=(index == last),
                )
                processes.append(self.submit(request))
            yield self.kernel.all_of(processes)
            stage_record.records = [p.value for p in processes]
            stage_record.finished_at = self.kernel.now
            prec.stage_records.append(stage_record)
            if any(r.status != "ok" for r in stage_record.records):
                break
            prev_refs = [
                ref for r in stage_record.records for ref in r.output_refs
            ]
        prec.finished_at = self.kernel.now
        if span is not None:
            span.finish(status=prec.status, stages=len(prec.stage_records))
        self.pipeline_records.append(prec)
        for listener in self.pipeline_listeners:
            listener(prec)
        return prec
