"""FaaSLoad: the multi-tenant load injector (§7.2.2 and Appendix A).

FaaSLoad is a fixed population on the one load engine,
:class:`repro.workloads.tenants.TenantLoadEngine`.  It prepares input
datasets in the RSDS and registers each tenant's function with a booked
memory that matches the tenant's *profile*; the engine fires the
invocations at configurable intervals (periodic, exponential or bursty)
and folds what lands into per-tenant aggregates.  A tenant's arrivals
fall in ``(start, deadline]``: one drawn exactly at the deadline fires.

Tenant profiles (§7.2.2):

* ``NAIVE`` — books the maximum OpenWhisk allows (2 GB);
* ``ADVANCED`` — books the maximum memory the function has ever used
  (estimated from previous runs);
* ``NORMAL`` — books 1.7x the advanced amount (the common
  over-provisioning the AWS traces show).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterator, List, Optional, TYPE_CHECKING

import numpy as np

from repro.faas.platform import FaaSPlatform, MAX_SANDBOX_MB
from repro.sim.kernel import Kernel
from repro.sim.latency import KB, MB
from repro.workloads.functions import FunctionModel, get_function_model
from repro.workloads.media import MediaCorpus
from repro.workloads.tenants import (
    estimate_max_footprint_mb,
    seed_inputs,
    TenantLoadEngine,
)

if TYPE_CHECKING:
    from repro.workloads.pipelines import PipelineApp

#: The names of :data:`repro.workloads.pipelines.ALL_PIPELINES`, so
#: telling a pipeline tenant from a single function imports no pipeline.
PIPELINE_NAMES = frozenset({"map_reduce", "THIS", "IMAD", "image_processing"})


class TenantProfile(Enum):
    NAIVE = "naive"
    ADVANCED = "advanced"
    NORMAL = "normal"


@dataclass
class TenantSpec:
    """One emulated tenant: a function (or pipeline) plus its load."""

    tenant_id: str
    #: Name of a single-stage function model, or of a pipeline app.
    workload: str
    profile: TenantProfile = TenantProfile.NORMAL
    mean_interval_s: float = 60.0
    #: Arrival process: "exponential" (Poisson, the paper's macro
    #: setting), "periodic", or "bursty" (geometric bursts separated by
    #: long gaps — the §2.2.1 pattern that justifies keep-alive).
    arrival: str = "exponential"
    #: Mean invocations per burst (bursty arrivals only).
    burst_size: float = 5.0
    #: Intra-burst gap (bursty arrivals only).
    burst_gap_s: float = 0.5
    #: Byte-size targets for this tenant's input objects.
    input_sizes: List[int] = field(
        default_factory=lambda: [16 * KB, 64 * KB, 256 * KB, 1 * MB, 3 * MB]
    )
    n_inputs: int = 10

    @property
    def is_pipeline(self) -> bool:
        return self.workload in PIPELINE_NAMES


def booked_memory_for(profile: TenantProfile, advanced_estimate_mb: float) -> float:
    if profile == TenantProfile.NAIVE:
        return MAX_SANDBOX_MB
    if profile == TenantProfile.ADVANCED:
        return min(MAX_SANDBOX_MB, advanced_estimate_mb)
    return min(MAX_SANDBOX_MB, 1.7 * advanced_estimate_mb)


@dataclass
class TenantRuntime:
    """One prepared FaaSLoad tenant, as the load engine fires it."""

    spec: TenantSpec
    tenant_id: str = field(init=False)
    #: The single-stage function, or ``None`` for a pipeline tenant.
    model: Optional[FunctionModel] = None
    app: Optional[PipelineApp] = None
    #: Input refs of a function tenant; ref lists of a pipeline tenant.
    input_refs: List[Any] = field(default_factory=list)
    descriptors: List[Any] = field(default_factory=list)
    booked_mb: float = 0.0
    invocations_fired: int = 0
    #: Arrival times, input indices and arguments: the schedule stays
    #: identical across compared systems regardless of interleaving.
    rng: Optional[np.random.Generator] = None

    def __post_init__(self):
        self.tenant_id = self.spec.tenant_id

    def arrivals(self, deadline: float, start: float = 0.0) -> Iterator[float]:
        """Lazy arrival times in ``[start, deadline]``, drawn from
        ``rng`` one interval at a time."""
        spec = self.spec
        t = start
        while True:
            if spec.arrival == "periodic":
                wait = spec.mean_interval_s
            elif spec.arrival == "bursty":
                # Within a burst: short gaps; burst ends with probability
                # 1/burst_size, then a long idle gap follows. The long
                # gap is scaled so the long-run mean rate matches
                # ``mean_interval_s``.
                if self.rng.random() < 1.0 / max(spec.burst_size, 1.0):
                    gap = spec.mean_interval_s * spec.burst_size - (
                        spec.burst_size - 1
                    ) * spec.burst_gap_s
                    wait = float(self.rng.exponential(max(gap, spec.burst_gap_s)))
                else:
                    wait = spec.burst_gap_s
            else:
                wait = float(self.rng.exponential(spec.mean_interval_s))
            if t + wait > deadline:
                return
            t += wait
            yield t


class FaaSLoad(TenantLoadEngine):
    """The paper's fixed tenant population on the one load engine.

    Every tenant draws its arrivals, inputs and arguments from its own
    generator, seeded from ``truth_seed`` and its position, so the
    schedule is the same on every compared system.  ``run`` and the
    per-tenant aggregates in ``stats`` are the engine's.
    """

    def __init__(
        self,
        kernel: Kernel,
        platform: FaaSPlatform,
        store,
        truth_seed: int = 0,
    ):
        super().__init__(kernel, platform, store)
        self.truth_seed = truth_seed

    def prepare(self, specs: List[TenantSpec]) -> None:
        """Seed inputs and register the tenants' functions (blocking)."""
        process = self.kernel.process(self._prepare_all(specs), name="faasload-prep")
        self.kernel.run_until(process)

    def _prepare_all(self, specs: List[TenantSpec]):
        for index, spec in enumerate(specs):
            runtime = TenantRuntime(
                spec, rng=np.random.default_rng([self.truth_seed, 7919, index])
            )
            corpus = MediaCorpus(np.random.default_rng([self.truth_seed, index]))
            if spec.is_pipeline:
                from repro.workloads.pipelines import get_pipeline_app

                runtime.app = get_pipeline_app(spec.workload)
                runtime.app.register(
                    self.platform, tenant=spec.tenant_id, truth_seed=self.truth_seed
                )
                for size in spec.input_sizes:
                    refs = yield from runtime.app.prepare_inputs(
                        self.store, corpus, size
                    )
                    runtime.input_refs.append(refs)  # list of ref-lists
                runtime.booked_mb = max(
                    fn.booked_mb for fn in runtime.app.stage_functions
                )
            else:
                runtime.model = get_function_model(spec.workload)
                runtime.descriptors = corpus.batch(
                    runtime.model.input_kind,
                    spec.n_inputs,
                    sizes=spec.input_sizes,
                )
                runtime.input_refs = yield from seed_inputs(
                    self.store, spec.tenant_id, spec.workload, runtime.descriptors
                )
                advanced = estimate_max_footprint_mb(
                    runtime.model,
                    runtime.descriptors,
                    np.random.default_rng([self.truth_seed, 104729, index]),
                )
                runtime.booked_mb = booked_memory_for(spec.profile, advanced)
                self.platform.register_function(
                    runtime.model.spec(
                        tenant=spec.tenant_id,
                        booked_mb=runtime.booked_mb,
                        truth_seed=self.truth_seed,
                    )
                )
            self.tenants.append(runtime)
