"""The one load engine and the synthesized tenant population.

:class:`TenantLoadEngine` fires two populations through one path.  The
*synthesized* one here scales the load axis to *tens of thousands* of
tenants shaped like public FaaS traces (the Azure Functions
characterization): app popularity is Zipf-distributed over the existing
function models, per-tenant request rates are heavy-tailed, and every
tenant's arrivals are an inhomogeneous Poisson stream under a shared
diurnal envelope with short geometric bursts on top, in ``[start,
deadline)``.  The *fixed* one, :class:`~repro.workloads.faasload.FaaSLoad`,
is the paper's profiled tenants; its arrivals fall in ``(start,
deadline]``, so one drawn exactly at the deadline fires.

Nothing is materialized up front.  :class:`MergedArrivalStream`
heap-merges the tenants' lazy arrival generators, so the one driver
process holds one pending arrival per live tenant — O(tenants) state
however many invocations the run produces (the test suite streams 100k
invocations and asserts the bound).  Each record is folded into
per-tenant aggregates as it lands, and dropped.
"""

from __future__ import annotations

import heapq
import math
import zlib
from dataclasses import dataclass, field
from functools import partial
from itertools import count
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.faas.platform import MAX_SANDBOX_MB
from repro.faas.records import InvocationRequest
from repro.sim.kernel import delay_until, Event, Kernel
from repro.sim.latency import KB, MB
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


@dataclass(frozen=True)
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


#: App universe: the paper's 19 single-stage functions.
APPS = EVALUATION_FUNCTIONS
#: Pareto tail index of the per-tenant rate distribution (lower =
#: heavier tail; 1.5 matches the few-apps-dominate-traffic shape).
RATE_PARETO_ALPHA = 1.5
#: The rate modulation every tenant's arrivals follow.
ENVELOPE = DiurnalEnvelope()
#: Probability that an arrival opens a burst, and the burst shape.
BURST_PROB = 0.05
BURST_SIZE_MEAN = 4.0
BURST_GAP_S = 1.0
#: Private input objects per tenant (kept tiny: prep is O(tenants)).
N_INPUTS = 2
INPUT_SIZES = (64 * KB, 512 * KB, 2 * MB)


@dataclass
class TenantWorkloadConfig:
    """Size, skew, rate and seed of the synthesized tenant population."""

    n_tenants: int = 1000
    #: Zipf skew of app popularity over :data:`APPS`.
    zipf_s: float = 1.1
    #: Population-mean inter-arrival per tenant, in simulated seconds.
    mean_interval_s: float = 300.0
    seed: int = 0


@dataclass
class TenantStream:
    """One synthesized tenant: identity, app, rate and RNG streams."""

    index: int
    tenant_id: str
    model: FunctionModel
    rate_hz: float
    config: TenantWorkloadConfig
    input_refs: List[str] = field(default_factory=list)
    invocations_fired: int = 0
    #: Arrival times and argument draws come from separate streams so
    #: the schedule stays comparable across compared policies even if a
    #: policy changes how many argument draws happen.
    _arrival_rng: Optional[np.random.Generator] = None
    _rng: Optional[np.random.Generator] = None

    @property
    def arrival_rng(self) -> np.random.Generator:
        if self._arrival_rng is None:
            self._arrival_rng = np.random.default_rng(
                [self.config.seed, 7919, self.index]
            )
        return self._arrival_rng

    @property
    def rng(self) -> np.random.Generator:
        """Each fire's input index, then its arguments."""
        if self._rng is None:
            self._rng = np.random.default_rng(
                [self.config.seed, 104729, self.index]
            )
        return self._rng

    def arrivals(self, deadline: float, start: float = 0.0) -> Iterator[float]:
        """Lazy arrival times in ``[start, deadline)``.

        The base process is an inhomogeneous Poisson stream thinned
        against the diurnal envelope; an accepted arrival opens a
        geometric burst with probability :data:`BURST_PROB`.
        """
        env = ENVELOPE
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
            if rng.random() < BURST_PROB:
                extra = int(rng.geometric(1.0 / max(BURST_SIZE_MEAN, 1.0)))
                for _ in range(extra):
                    t += float(rng.exponential(BURST_GAP_S))
                    if t >= deadline:
                        return
                    yield t


def synthesize_tenants(config: TenantWorkloadConfig) -> List[TenantStream]:
    """Draw the tenant population (apps and rates) deterministically.

    O(tenants) descriptors; the per-tenant arrival streams stay lazy.
    """
    rng = np.random.default_rng([config.seed, 13])
    models = [get_function_model(app) for app in APPS]
    ranks = ZipfSampler(len(models), config.zipf_s).sample(
        rng, size=config.n_tenants
    )
    # Heavy-tailed per-tenant rates, normalized so the population mean
    # inter-arrival matches ``mean_interval_s`` exactly.
    raw = rng.pareto(RATE_PARETO_ALPHA, size=config.n_tenants) + 1.0
    rates = raw / raw.mean() / config.mean_interval_s
    return [
        TenantStream(
            index=i,
            tenant_id=f"tn{i:05d}",
            model=models[int(ranks[i])],
            rate_hz=float(rates[i]),
            config=config,
        )
        for i in range(config.n_tenants)
    ]


class MergedArrivalStream:
    """Heap-merge of per-tenant arrival generators.

    Takes any tenants with an ``arrivals(deadline, start)`` generator
    and holds one ``(next_time, draw, tenant, arrivals)`` entry per
    live tenant — never more, no matter how long the merged stream
    runs.  Iterating yields ``(time, tenant)`` in global time order.  A
    tenant's next arrival is drawn only when the following item is
    asked for, after the consumer has acted on the current one, and
    equal times go in the order they were drawn: the order in which one
    sleeping process per tenant would wake.
    """

    def __init__(self, tenants: Sequence[Any], deadline: float, start: float = 0.0):
        self._draws = count()
        self._heap: List[Tuple[float, int, Any, Iterator[float]]] = []
        for tenant in tenants:
            arrivals = tenant.arrivals(deadline, start=start)
            first = next(arrivals, None)
            if first is not None:
                self._heap.append((first, next(self._draws), tenant, arrivals))
        heapq.heapify(self._heap)

    @property
    def pending_count(self) -> int:
        """Live per-tenant entries — the stream's entire pending state."""
        return len(self._heap)

    def __iter__(self) -> Iterator[Tuple[float, Any]]:
        heap, draws = self._heap, self._draws
        while heap:
            when, _draw, tenant, arrivals = heap[0]
            yield when, tenant
            following = next(arrivals, None)
            if following is None:
                heapq.heappop(heap)
            else:
                heapq.heapreplace(heap, (following, next(draws), tenant, arrivals))


def estimate_max_footprint_mb(
    model: FunctionModel,
    corpus_descriptors: List[Any],
    rng: np.random.Generator,
    samples: int = 200,
) -> float:
    """The 'advanced' tenant's estimate: max footprint over past runs."""
    peak = 0.0
    for _ in range(samples):
        media = corpus_descriptors[int(rng.integers(0, len(corpus_descriptors)))]
        args = model.sample_args(rng)
        peak = max(peak, model.footprint_mb(media, args, rng))
    return peak


def seed_inputs(store, tenant_id: str, app: str, descriptors: List[Any]):
    """Put one tenant's inputs into the ``inputs`` bucket (a process
    body); returns their refs in descriptor order."""
    store.ensure_bucket("inputs")
    refs = []
    for i, media in enumerate(descriptors):
        name = f"{tenant_id}-{app}-in{i}"
        yield from store.put(
            "inputs", name, media, size=media.size, user_meta=media.features()
        )
        refs.append(f"inputs/{name}")
    return refs


@dataclass
class TenantAggregate:
    """Streaming per-tenant outcomes of what landed (no record lists)."""

    completed: int = 0
    failed: int = 0
    cold_starts: int = 0
    #: Over landed-ok outcomes: submission-to-completion latency, and
    #: execution time (no queueing; a pipeline's is its duration).
    latency_sum_s: float = 0.0
    exec_sum_s: float = 0.0

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
    """Streams a tenant population into one deployment, keeping only
    O(tenants) aggregates: the invocation count is bounded by simulated
    time, not by memory.  :meth:`prepare` synthesizes the population
    ``config`` shapes (:class:`~repro.workloads.faasload.FaaSLoad`
    prepares a fixed one).  A tenant of either kind has ``tenant_id``,
    ``rng``, ``model`` (``None`` for a pipeline tenant, whose ``app`` is
    the pipeline), ``input_refs`` and ``invocations_fired``.
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
        self.tenants: List[Any] = []
        self.stats = TenantLoadStats()

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
        descriptors = corpus.batch(model.input_kind, 4, sizes=INPUT_SIZES)
        peak = estimate_max_footprint_mb(model, descriptors, rng, samples=24)
        return min(MAX_SANDBOX_MB, 1.2 * peak)

    def _prepare_all(self):
        config = self.config
        corpus = MediaCorpus(np.random.default_rng([config.seed, 17]))
        booked = {
            model: self._booked_mb(model, corpus)
            for model in dict.fromkeys(t.model for t in self.tenants)
        }
        for tenant in self.tenants:
            self.platform.register_function(
                tenant.model.spec(
                    tenant=tenant.tenant_id,
                    booked_mb=booked[tenant.model],
                    truth_seed=config.seed,
                )
            )
            descriptors = corpus.batch(
                tenant.model.input_kind, N_INPUTS, sizes=INPUT_SIZES
            )
            tenant.input_refs = yield from seed_inputs(
                self.store, tenant.tenant_id, tenant.model.name, descriptors
            )

    # -- injection -------------------------------------------------------

    def _fire(self, tenant) -> Event:
        tenant.invocations_fired += 1
        self.stats.submitted += 1
        tenant_id, per_tenant = tenant.tenant_id, self.stats.per_tenant
        if tenant_id in per_tenant:
            agg = per_tenant[tenant_id]
        else:
            agg = per_tenant[tenant_id] = TenantAggregate()
        rng, model = tenant.rng, tenant.model
        ref = tenant.input_refs[int(rng.integers(0, len(tenant.input_refs)))]
        if model is None:
            process = self.kernel.process(
                self.platform.invoke_pipeline(
                    tenant.app.pipeline, tenant=tenant_id, input_refs=list(ref)
                ),
                name=f"{tenant_id}-pipeline",
            )
        else:
            process = self.platform.submit(
                InvocationRequest(
                    function=model.name,
                    tenant=tenant_id,
                    args=model.sample_args(rng),
                    input_ref=ref,
                )
            )
        # Folded when it lands, then dropped: live state stays O(tenants).
        process.wait(partial(self._fold, agg))
        return process

    def _fold(self, agg: TenantAggregate, process: Event) -> None:
        """Fold one landed invocation or pipeline record into ``agg``."""
        record = process.value
        stats = self.stats
        if record.status == "ok":
            agg.completed += 1
            stats.completed += 1
            # ``record.duration`` inlined: one call fewer per record.
            agg.latency_sum_s += record.finished_at - record.submitted_at
            agg.exec_sum_s += record.execution_time
        else:
            agg.failed += 1
            stats.failed += 1
            cause = record.error.partition(":")[0]
            stats.failures[cause] = stats.failures.get(cause, 0) + 1
        if record.cold_start:
            agg.cold_starts += 1

    def reset_stats(self) -> None:
        """Discard accumulated aggregates (e.g. after a warmup run)."""
        self.stats = TenantLoadStats()

    def run(self, duration_s: float) -> TenantLoadStats:
        """Fire arrivals for ``duration_s`` simulated seconds from now
        and return at the instant the last fired process lands (a
        second call continues from there).  One driver process pulls the
        :class:`MergedArrivalStream`; a count of fired processes not yet
        landed is the only per-invocation state."""
        if not self.tenants:
            self.prepare()
        kernel, fire = self.kernel, self._fire
        deadline = kernel.now + duration_s
        in_flight = 0
        drained: Optional[Event] = None

        def landed(_process: Event) -> None:
            nonlocal in_flight
            in_flight -= 1
            if in_flight == 0 and drained is not None:
                drained.succeed()

        def driver():
            nonlocal in_flight, drained
            # Streams start at the current simulated time: preparation
            # (seeding inputs) consumed simulated seconds, and arrivals
            # scheduled before "now" would all fire in one burst.
            for when, tenant in MergedArrivalStream(self.tenants, deadline, kernel.now):
                while kernel.now != when:
                    yield delay_until(kernel.now, when)
                in_flight += 1
                fire(tenant).wait(landed)
            if in_flight:
                drained = kernel.event()
                yield drained

        kernel.run_until(kernel.process(driver(), name="load-driver"))
        return self.stats
