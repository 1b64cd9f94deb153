"""OFCPlatform: the assembled system (Figure 4).

The one place the OFC core is built: Predictor (whose
``sizing_policy`` is the paper's Sizer), Monitor, one CacheAgent per
node, the rclib proxy, the persistors and the tenant accounting, wired
into a stock :class:`FaaSPlatform` through its extension hooks, plus
the RSDS webhooks that preserve strong consistency for external
(non-FaaS) clients.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, Generator, List, Optional

from repro.core.cache_agent import CacheAgent
from repro.core.config import OFCConfig
from repro.core.metrics import OFCMetrics
from repro.core.monitor import Monitor
from repro.core.persistor import PersistorService
from repro.core.predictor import Predictor
from repro.core.proxy import RcLibClient, RcLibStats
from repro.core.routing import OFCScheduler
from repro.core.tenancy import TenantCacheAccounting
from repro.core.trainer import ModelTrainer
from repro.faas.pipeline import Pipeline, PipelineRecord
from repro.faas.platform import FaaSPlatform, PlatformConfig
from repro.faas.records import InvocationRecord, InvocationRequest
from repro.kvcache.cluster import CacheCluster
from repro.kvcache.errors import NoSuchKey
from repro.obs.registry import MetricsRegistry
from repro.sim.kernel import Kernel
from repro.sim.latency import SWIFT_PROFILE
from repro.sim.rng import RngRegistry
from repro.storage.errors import StoreUnavailable
from repro.storage.object_store import ObjectStore


class OFCPlatform:
    """The opportunistic FaaS cache, end to end.

    Typical use::

        ofc = OFCPlatform(seed=1)
        ofc.start()
        ofc.platform.register_function(spec)
        record = ofc.invoke(InvocationRequest(function="f", tenant="t"))
    """

    def __init__(
        self,
        kernel: Optional[Kernel] = None,
        config: Optional[OFCConfig] = None,
        platform_config: Optional[PlatformConfig] = None,
        seed: int = 0,
    ):
        self.kernel = kernel or Kernel()
        self.config = config or OFCConfig()
        self.rng = RngRegistry(seed)
        # The five streams feed LatencyModel jitter only, one standard
        # normal per draw whatever the model's sigma, so each is a cursor
        # over pre-drawn standard normals (bit-identical — see
        # repro.sim.rng).  "platform" is shared with the invokers.
        self.store = ObjectStore(
            self.kernel, profile=SWIFT_PROFILE, rng=self.rng.batched_stream("rsds")
        )
        platform_config = platform_config or PlatformConfig()
        self.platform = FaaSPlatform(
            self.kernel,
            self.store,
            platform_config,
            rng=self.rng.batched_stream("platform"),
        )
        # The pluggable cache architecture (see repro.cache; imported
        # here, not at module scope — repro.cache itself pulls in
        # repro.core.config, and a module-level import would cycle).
        # The default "ofc" backend is the CacheCluster itself, deployed;
        # "faast"/"infinicache" swap the whole cache subsystem behind
        # the same surface.
        from repro.cache import make_backend

        self.backend = make_backend(
            self.config.cache_backend,
            self.kernel,
            platform_config.node_ids,
            config=self.config,
            rng=self.rng.batched_stream("cache"),
        )
        #: The RAMCloud-style cluster: the backend itself on "ofc",
        #: None on the others.
        self.cluster = (
            self.backend if isinstance(self.backend, CacheCluster) else None
        )
        self.metrics = OFCMetrics()
        self.rclib_stats = RcLibStats()
        # Keys with a cache-fill already in flight, shared across every
        # per-invocation RcLibClient: concurrent misses on one key must
        # schedule exactly one fill (see RcLibClient._populate_async).
        self._inflight_fills: set = set()
        # Per-tenant accounting and admission; with the default "none"
        # policy this is pure bookkeeping and the simulated schedule is
        # bit-identical to a build without it.
        self.tenancy = TenantCacheAccounting(
            self.config.tenant_quota_policy, self.config.tenant_static_fraction
        )
        self.backend.on_object_admitted = self._on_object_admitted
        self.backend.on_object_removed = self._on_object_removed
        self.trainer = ModelTrainer()
        self.predictor = Predictor(
            self.kernel,
            self.trainer,
            self.store,
            self.config,
            self.rng.batched_stream("predictor"),
        )
        self.persistor = PersistorService(
            self.kernel,
            self.store,
            self.backend,
            rng=self.rng.batched_stream("persistor"),
            on_persisted=self._on_persisted,
            requeue=self.config.persistor_requeue,
        )
        #: One harvest agent per node on "ofc" (the cluster they size);
        #: none on the other backends, which size themselves.
        self.agents: Dict[str, CacheAgent] = (
            {
                invoker.node_id: CacheAgent(
                    self.kernel,
                    invoker,
                    self.cluster,
                    self.persistor,
                    self.config,
                    self.metrics,
                    self.tenancy,
                )
                for invoker in self.platform.invokers
            }
            if self.cluster is not None
            else {}
        )
        # Hook everything into the platform.
        self.platform.scheduler = OFCScheduler(self.backend)
        self.platform.sizing_policy = self.predictor.sizing_policy
        self.platform.data_client_factory = self._make_data_client
        self.platform.monitor_factory = self._make_monitor
        self.platform.completion_listeners.append(self.trainer.on_completion)
        self.platform.pipeline_listeners.append(self._on_pipeline_complete)
        if self.config.strict_consistency:
            self.store.register_read_hook(self._read_webhook)
            self.store.register_write_hook(self._write_webhook)
        #: Attached by :class:`repro.checks.HistoryRecorder`; None in
        #: ordinary runs (the ``checks`` collector then reports zeros).
        self.checks_recorder = None
        self.obs = self._build_registry()
        self._started = False

    # -- observability -------------------------------------------------------

    def _build_registry(self) -> MetricsRegistry:
        """One registry absorbing every component's ad-hoc counters.

        The pre-existing stats dataclasses keep their attribute APIs;
        lazy collectors pull their snapshots only when the registry
        itself is snapshotted, so the run pays nothing.
        """
        registry = MetricsRegistry()
        registry.register_collector("ofc", self.metrics.snapshot)
        registry.register_collector("table2", self.table2_snapshot)
        registry.register_collector("rclib", self._rclib_snapshot)
        registry.register_collector("kvcache", self.backend.stats_snapshot)
        registry.register_collector("cache_backend", self.backend.cost_snapshot)
        registry.register_collector("rsds", self.store.stats.snapshot)
        registry.register_collector(
            "persistor", lambda: asdict(self.persistor.stats)
        )
        registry.register_collector("invokers", self._invoker_snapshot)
        registry.register_collector("tenancy", self.tenancy.snapshot)
        registry.register_collector("checks", self._checks_snapshot)
        return registry

    def _checks_snapshot(self) -> Dict[str, Any]:
        """History-checker counters (zeros unless a recorder attached)."""
        recorder = self.checks_recorder
        if recorder is None:
            return {"attached": 0, "ops": 0, "violations_total": 0}
        return recorder.snapshot()

    def _on_object_admitted(self, obj) -> None:
        self.tenancy.on_object_admitted(obj.flags.get("tenant"), obj.size)

    def _on_object_removed(self, obj) -> None:
        self.tenancy.on_object_removed(obj.flags.get("tenant"), obj.size)

    def _rclib_snapshot(self) -> Dict[str, float]:
        snap: Dict[str, float] = asdict(self.rclib_stats)
        snap["hit_ratio"] = self.rclib_stats.hit_ratio
        return snap

    def _invoker_snapshot(self) -> Dict[str, float]:
        """Cluster-wide sums of the per-node invoker counters."""
        totals: Dict[str, float] = {}
        for invoker in self.platform.invokers:
            for key, value in asdict(invoker.stats).items():
                totals[key] = totals.get(key, 0) + value
        totals["nodes"] = len(self.platform.invokers)
        return totals

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Start the cache backend, then the per-node agents (which size
        the initial cache)."""
        if self._started:
            return
        self._started = True
        self.backend.start()
        for agent in self.agents.values():
            agent.start()
        # Let the initial scale-up land before any invocation arrives.
        self.kernel.run(until=self.kernel.now)

    # -- hook factories ----------------------------------------------------------

    def _make_data_client(self, invoker, record: InvocationRecord) -> RcLibClient:
        return RcLibClient(
            self.kernel,
            invoker.node_id,
            self.backend,
            self.store,
            self.persistor,
            self.config,
            record,
            self.rclib_stats,
            self.tenancy,
            self._inflight_fills,
        )

    def _make_monitor(self, record: InvocationRecord, invoker) -> Monitor:
        return Monitor(record, invoker)

    # -- consistency callbacks (§6.2) -----------------------------------------------

    def _read_webhook(self, op: str, meta) -> Generator:
        """Hold an external GET until the latest payload is persisted."""
        key = meta.key
        if not meta.is_shadow:
            return
        pending = self.persistor.pending_for(key)
        if pending is not None:
            yield from self.persistor.boost(key)
            return
        # Nothing in flight but the RSDS copy is stale: push from cache.
        cached = self.backend.peek(key)
        if cached is not None:
            done = self.persistor.schedule(
                meta.bucket, meta.name, cached.value, meta.version, final=False
            )
            yield done

    def _write_webhook(self, op: str, meta) -> Generator:
        """Invalidate the cached copy before an external write (§6.2)."""
        key = meta.key
        if self.backend.contains(key):
            try:
                yield from self.backend.delete(key, caller="external")
            except NoSuchKey:
                pass

    def _on_persisted(self, key: str, final: bool, version: int) -> None:
        """Discard final outputs from the cache once written back (§6.3)."""
        if not final:
            return

        def discard():
            cached = self.backend.peek(key)
            if (
                cached is not None
                and cached.version <= version
                and not cached.flags.get("dirty", False)
            ):
                try:
                    yield from self.backend.delete(key, caller="external")
                except NoSuchKey:
                    pass

        self.kernel.process(discard(), name=f"discard-final-{key}")

    def _on_pipeline_complete(self, record: PipelineRecord) -> None:
        """Remove the pipeline's intermediate objects from the cache and
        drop their RSDS shadows (§6.3: removed, never persisted)."""

        def cleanup():
            removed = 0
            # backend.objects() is lazy per node, in the same order the
            # pre-seam loop walked the cluster's servers (bit-identity).
            for node_id, obj in self.backend.objects():
                if obj.flags.get("pipeline_id") != record.pipeline_id:
                    continue
                if not obj.flags.get("intermediate", False):
                    continue
                bucket, _sep, name = obj.key.partition("/")
                try:
                    yield from self.backend.delete(obj.key, caller=node_id)
                    removed += 1
                except NoSuchKey:
                    continue
                if self.store.contains(bucket, name):
                    try:
                        yield from self.store.delete(
                            bucket, name, internal=True
                        )
                    except StoreUnavailable:
                        # Outage mid-cleanup: the orphan shadow stays
                        # in the RSDS; harmless (zero payload).
                        continue
            self.metrics.pipeline_cleanups += 1
            self.metrics.intermediate_objects_removed += removed

        self.kernel.process(
            cleanup(), name=f"pipeline-cleanup-{record.pipeline_id}"
        )

    # -- public API ------------------------------------------------------------------

    def invoke(self, request: InvocationRequest) -> InvocationRecord:
        """Blocking invoke (runs the kernel until the record completes)."""
        process = self.kernel.process(self.platform.invoke(request))
        return self.kernel.run_until(process)

    def invoke_pipeline(
        self,
        pipeline: Pipeline,
        tenant: str,
        base_args: Optional[Dict[str, Any]] = None,
        input_refs: Optional[List[str]] = None,
    ) -> PipelineRecord:
        process = self.kernel.process(
            self.platform.invoke_pipeline(
                pipeline, tenant, base_args=base_args, input_refs=input_refs
            )
        )
        return self.kernel.run_until(process)

    # -- reporting (Table 2) ----------------------------------------------

    def table2_snapshot(self) -> Dict[str, Any]:
        snap = self.metrics.snapshot()
        snap.update(
            {
                "good_predictions": self.trainer.good_predictions,
                "bad_predictions": self.trainer.bad_predictions,
                "failed_invocations": self.platform.failed_invocations,
                "cache_hit_ratio": round(self.rclib_stats.hit_ratio, 4),
                "ephemeral_data_bytes": self.rclib_stats.ephemeral_bytes,
            }
        )
        return snap
