"""Trace-driven multi-tenant workload engine (streaming, memory-flat).

The FaaSLoad injector (:mod:`repro.workloads.faasload`) models a
handful of cooperative tenants, one kernel process each.  This module
scales the load axis to *tens of thousands* of tenants shaped like
public FaaS traces (the Azure Functions characterization): app
popularity is Zipf-distributed over the existing function models,
per-tenant request rates are heavy-tailed, and every tenant's arrival
process is an inhomogeneous Poisson stream under a shared diurnal
envelope with short geometric bursts layered on top.

Nothing is materialized up front.  Each tenant owns a lazy arrival
generator; :class:`MergedArrivalStream` heap-merges them so the engine
holds exactly one pending arrival per live tenant — O(tenants) state
regardless of how many invocations the run produces (the test suite
streams 100k invocations and asserts the bound).  One driver process
pulls the merged stream and fires invocations into the platform; the
per-tenant results are folded into streaming aggregates rather than
kept as record lists.
"""

from __future__ import annotations

import heapq
import math
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.faas.records import InvocationRecord, InvocationRequest
from repro.sim.kernel import Kernel
from repro.sim.latency import KB, MB
from repro.workloads.faasload import estimate_max_footprint_mb
from repro.workloads.functions import (
    EVALUATION_FUNCTIONS,
    FunctionModel,
    get_function_model,
)
from repro.workloads.media import MediaCorpus

__all__ = [
    "DiurnalEnvelope",
    "MergedArrivalStream",
    "TenantLoadEngine",
    "TenantStream",
    "TenantWorkloadConfig",
    "ZipfSampler",
    "synthesize_tenants",
]


class ZipfSampler:
    """Zipf(s) over ranks ``0..n-1`` with a precomputed CDF.

    Deterministic under a fixed :class:`numpy.random.Generator`: the
    same seed always yields the same rank sequence (CI asserts this).
    """

    def __init__(self, n: int, s: float):
        if n < 1:
            raise ValueError(f"need at least one rank: {n}")
        self.n = n
        self.s = float(s)
        weights = np.arange(1, n + 1, dtype=np.float64) ** -self.s
        self._cdf = np.cumsum(weights / weights.sum())

    def pmf(self) -> np.ndarray:
        """Probability of each rank, most popular first."""
        return np.diff(self._cdf, prepend=0.0)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        """Draw rank indices (0-based, 0 = most popular)."""
        draws = rng.random(size)
        return np.searchsorted(self._cdf, draws, side="left")


@dataclass
class DiurnalEnvelope:
    """Sinusoidal rate modulation around 1.0 (a day by default)."""

    period_s: float = 86_400.0
    #: Peak-to-mean excursion; 0 disables the envelope, must stay < 1.
    amplitude: float = 0.6
    phase_s: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError(f"amplitude must be in [0, 1): {self.amplitude}")
        if self.period_s <= 0.0:
            raise ValueError(f"period must be > 0: {self.period_s}")

    @property
    def peak(self) -> float:
        return 1.0 + self.amplitude

    def rate(self, t: float) -> float:
        """Instantaneous rate multiplier at simulated time ``t``."""
        omega = 2.0 * math.pi / self.period_s
        return 1.0 + self.amplitude * math.sin(omega * (t - self.phase_s))

    def integrate(self, t0: float, t1: float) -> float:
        """Analytic ``∫ rate(t) dt`` over ``[t0, t1]``.

        Over one full period this equals ``period_s`` exactly (the
        envelope redistributes arrivals within the day, it does not add
        any): the test suite checks the numeric integral against this.
        """
        omega = 2.0 * math.pi / self.period_s
        swing = (
            math.cos(omega * (t0 - self.phase_s))
            - math.cos(omega * (t1 - self.phase_s))
        )
        return (t1 - t0) + (self.amplitude / omega) * swing


@dataclass
class TenantWorkloadConfig:
    """Shape of the synthesized tenant population."""

    n_tenants: int = 1000
    #: Zipf skew of app popularity over ``apps``.
    zipf_s: float = 1.1
    #: Population-mean inter-arrival per tenant, in simulated seconds.
    mean_interval_s: float = 300.0
    #: Pareto tail index of the per-tenant rate distribution (lower =
    #: heavier tail; 1.5 matches the few-apps-dominate-traffic shape).
    rate_pareto_alpha: float = 1.5
    envelope: DiurnalEnvelope = field(default_factory=DiurnalEnvelope)
    #: Probability that an arrival opens a burst, and the burst shape.
    burst_prob: float = 0.05
    burst_size_mean: float = 4.0
    burst_gap_s: float = 1.0
    #: Private input objects per tenant (kept tiny: prep is O(tenants)).
    n_inputs: int = 2
    input_sizes: Tuple[int, ...] = (64 * KB, 512 * KB, 2 * MB)
    #: App universe; defaults to the paper's 19 single-stage functions.
    apps: Sequence[str] = field(
        default_factory=lambda: list(EVALUATION_FUNCTIONS)
    )
    seed: int = 0


@dataclass
class TenantStream:
    """One synthesized tenant: identity, app, rate and RNG streams."""

    index: int
    tenant_id: str
    app: str
    rate_hz: float
    config: TenantWorkloadConfig
    input_refs: List[str] = field(default_factory=list)
    #: Arrival times and argument draws come from separate streams so
    #: the schedule stays comparable across compared policies even if a
    #: policy changes how many argument draws happen.
    _arrival_rng: Optional[np.random.Generator] = None
    _args_rng: Optional[np.random.Generator] = None

    @property
    def arrival_rng(self) -> np.random.Generator:
        if self._arrival_rng is None:
            self._arrival_rng = np.random.default_rng(
                [self.config.seed, 7919, self.index]
            )
        return self._arrival_rng

    @property
    def args_rng(self) -> np.random.Generator:
        if self._args_rng is None:
            self._args_rng = np.random.default_rng(
                [self.config.seed, 104729, self.index]
            )
        return self._args_rng

    def arrivals(self, deadline: float, start: float = 0.0) -> Iterator[float]:
        """Lazy arrival times in ``[start, deadline)``.

        The base process is an inhomogeneous Poisson stream thinned
        against the diurnal envelope; an accepted arrival opens a
        geometric burst with probability ``burst_prob``.
        """
        cfg = self.config
        env = cfg.envelope
        rng = self.arrival_rng
        lam_max = self.rate_hz * env.peak
        if lam_max <= 0.0:
            return
        t = start
        while True:
            t += float(rng.exponential(1.0 / lam_max))
            if t >= deadline:
                return
            # Thinning: keep the candidate with probability rate/peak.
            if rng.random() * env.peak > env.rate(t):
                continue
            yield t
            if rng.random() < cfg.burst_prob:
                extra = int(rng.geometric(1.0 / max(cfg.burst_size_mean, 1.0)))
                for _ in range(extra):
                    t += float(rng.exponential(cfg.burst_gap_s))
                    if t >= deadline:
                        return
                    yield t


def synthesize_tenants(config: TenantWorkloadConfig) -> List[TenantStream]:
    """Draw the tenant population (apps and rates) deterministically.

    O(tenants) descriptors; the per-tenant arrival streams stay lazy.
    """
    rng = np.random.default_rng([config.seed, 13])
    apps = list(config.apps)
    ranks = ZipfSampler(len(apps), config.zipf_s).sample(
        rng, size=config.n_tenants
    )
    # Heavy-tailed per-tenant rates, normalized so the population mean
    # inter-arrival matches ``mean_interval_s`` exactly.
    raw = rng.pareto(config.rate_pareto_alpha, size=config.n_tenants) + 1.0
    rates = raw / raw.mean() / config.mean_interval_s
    return [
        TenantStream(
            index=i,
            tenant_id=f"tn{i:05d}",
            app=apps[int(ranks[i])],
            rate_hz=float(rates[i]),
            config=config,
        )
        for i in range(config.n_tenants)
    ]


class MergedArrivalStream:
    """Heap-merge of per-tenant arrival generators.

    Holds one ``(next_time, tenant_index)`` entry per live tenant —
    never more, no matter how long the merged stream runs.  Iterating
    yields ``(time, tenant)`` in global time order.
    """

    def __init__(
        self,
        tenants: Sequence[TenantStream],
        deadline: float,
        start: float = 0.0,
    ):
        self._heap: List[Tuple[float, int]] = []
        self._generators: Dict[int, Iterator[float]] = {}
        self._tenants: Dict[int, TenantStream] = {}
        for tenant in tenants:
            gen = tenant.arrivals(deadline, start=start)
            first = next(gen, None)
            if first is None:
                continue
            self._generators[tenant.index] = gen
            self._tenants[tenant.index] = tenant
            heapq.heappush(self._heap, (first, tenant.index))

    @property
    def pending_count(self) -> int:
        """Live per-tenant entries — the stream's entire pending state."""
        return len(self._heap)

    def __iter__(self) -> Iterator[Tuple[float, TenantStream]]:
        heap = self._heap
        while heap:
            when, index = heapq.heappop(heap)
            tenant = self._tenants[index]
            following = next(self._generators[index], None)
            if following is None:
                del self._generators[index]
                del self._tenants[index]
            else:
                heapq.heappush(heap, (following, index))
            yield when, tenant


@dataclass
class TenantAggregate:
    """Streaming per-tenant invocation outcomes (no record lists)."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    cold_starts: int = 0
    latency_sum_s: float = 0.0
    latency_max_s: float = 0.0

    @property
    def mean_latency_s(self) -> float:
        if self.completed == 0:
            return 0.0
        return self.latency_sum_s / self.completed


@dataclass
class TenantLoadStats:
    """Engine-level outcome of one streamed run."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    #: Failed invocations by cause: the exception class that ended the
    #: last attempt (the head of ``InvocationRecord.error``).
    failures: Dict[str, int] = field(default_factory=dict)
    per_tenant: Dict[str, TenantAggregate] = field(default_factory=dict)


class TenantLoadEngine:
    """Streams a synthesized tenant population into one deployment.

    Unlike :class:`~repro.workloads.faasload.FaaSLoad` (one process and
    one record list per tenant) this engine runs a single driver
    process over the merged arrival stream and keeps only O(tenants)
    aggregates, so the invocation count is bounded by simulated time,
    not by memory.
    """

    def __init__(
        self,
        kernel: Kernel,
        platform,
        store,
        config: Optional[TenantWorkloadConfig] = None,
    ):
        self.kernel = kernel
        self.platform = platform
        self.store = store
        self.config = config or TenantWorkloadConfig()
        self.tenants: List[TenantStream] = []
        self.stats = TenantLoadStats()
        self._drained = None
        self._driver_done = False

    # -- preparation -----------------------------------------------------

    def prepare(self) -> None:
        """Synthesize tenants, register functions, seed inputs (blocking)."""
        self.tenants = synthesize_tenants(self.config)
        process = self.kernel.process(self._prepare_all(), name="tenants-prep")
        self.kernel.run_until(process)

    def _booked_mb(self, model: FunctionModel, corpus: MediaCorpus) -> float:
        """Advanced-profile-style booking, estimated once per app.

        Sampling 200 historic runs per tenant (the FaaSLoad approach)
        costs O(tenants x samples); tenants running the same app share
        the model, so one modest estimate per app suffices.
        """
        rng = np.random.default_rng(
            [self.config.seed, 271, zlib.crc32(model.name.encode())]
        )
        descriptors = corpus.batch(
            model.input_kind, 4, sizes=list(self.config.input_sizes)
        )
        peak = estimate_max_footprint_mb(model, descriptors, rng, samples=24)
        return min(2048.0, 1.2 * peak)

    def _prepare_all(self):
        config = self.config
        self.store.ensure_bucket("inputs")
        corpus = MediaCorpus(np.random.default_rng([config.seed, 17]))
        booked: Dict[str, float] = {}
        for app in dict.fromkeys(t.app for t in self.tenants):
            booked[app] = self._booked_mb(get_function_model(app), corpus)
        for tenant in self.tenants:
            model = get_function_model(tenant.app)
            self.platform.register_function(
                model.spec(
                    tenant=tenant.tenant_id,
                    booked_mb=booked[tenant.app],
                    truth_seed=config.seed,
                )
            )
            descriptors = corpus.batch(
                model.input_kind,
                config.n_inputs,
                sizes=list(config.input_sizes),
            )
            for i, media in enumerate(descriptors):
                name = f"{tenant.tenant_id}-{tenant.app}-in{i}"
                yield from self.store.put(
                    "inputs",
                    name,
                    media,
                    size=media.size,
                    user_meta=media.features(),
                )
                tenant.input_refs.append(f"inputs/{name}")

    # -- injection -------------------------------------------------------

    def _on_completion(self, record: InvocationRecord) -> None:
        tenant_id = record.request.tenant
        agg = self.stats.per_tenant.get(tenant_id)
        if agg is None:
            return  # another injector's tenant (shared platform)
        if record.status == "ok":
            agg.completed += 1
            self.stats.completed += 1
            latency = record.duration
            agg.latency_sum_s += latency
            agg.latency_max_s = max(agg.latency_max_s, latency)
        else:
            agg.failed += 1
            self.stats.failed += 1
            cause = record.error.partition(":")[0]
            failures = self.stats.failures
            failures[cause] = failures.get(cause, 0) + 1
        if record.cold_start:
            agg.cold_starts += 1
        if (
            self._driver_done
            and self._drained is not None
            and self.stats.completed + self.stats.failed
            >= self.stats.submitted
        ):
            gate, self._drained = self._drained, None
            gate.succeed()

    def _drive(self, deadline: float):
        # Streams start at the current simulated time: preparation
        # (seeding thousands of inputs) consumed simulated seconds, and
        # arrivals scheduled before "now" would all fire in one burst.
        stream = MergedArrivalStream(
            self.tenants, deadline, start=self.kernel.now
        )
        for when, tenant in stream:
            wait = when - self.kernel.now
            if wait > 0.0:
                yield wait
            ref = tenant.input_refs[
                int(tenant.args_rng.integers(0, len(tenant.input_refs)))
            ]
            model = get_function_model(tenant.app)
            request = InvocationRequest(
                function=tenant.app,
                tenant=tenant.tenant_id,
                args=model.sample_args(tenant.args_rng),
                input_ref=ref,
            )
            agg = self.stats.per_tenant.get(tenant.tenant_id)
            if agg is None:
                agg = self.stats.per_tenant[tenant.tenant_id] = TenantAggregate()
            agg.submitted += 1
            self.stats.submitted += 1
            # Fire and forget: completion lands in _on_completion; no
            # handle is retained, keeping live state at O(tenants).
            self.kernel.process(
                self.platform.invoke(request), name=f"tn-invoke-{tenant.app}"
            )

    def reset_stats(self) -> None:
        """Discard accumulated aggregates (e.g. after a warmup run)."""
        self.stats = TenantLoadStats()

    def run(self, duration_s: float) -> TenantLoadStats:
        """Stream load for ``duration_s`` simulated seconds (blocking),
        then wait for in-flight invocations to land.  May be called
        again to continue streaming from the current simulated time."""
        if not self.tenants:
            self.prepare()
        self._driver_done = False
        self.platform.completion_listeners.append(self._on_completion)
        kept, self.platform.keep_records = self.platform.keep_records, False
        try:
            deadline = self.kernel.now + duration_s
            driver = self.kernel.process(
                self._drive(deadline), name="tenants-driver"
            )
            self.kernel.run_until(driver)
            self._driver_done = True
            while (
                self.stats.completed + self.stats.failed < self.stats.submitted
            ):
                self._drained = self.kernel.event()
                self.kernel.run_until(self._drained)
        finally:
            self.platform.keep_records = kept
            self.platform.completion_listeners.remove(self._on_completion)
        return self.stats
