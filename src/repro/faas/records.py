"""Invocation requests and execution records.

An :class:`InvocationRecord` is the platform's unit of telemetry: it
carries the per-phase (Extract/Transform/Load) timings the evaluation
plots, the memory sizing decisions, and the request features that feed
OFC's ML models.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro import EMPTY, slotted

_next_id = itertools.count(1)


def reset_request_ids() -> None:
    """Restart the process-global request-id counter.

    Request ids leak into object keys (pipeline intermediates embed
    them), so a deployment's cache behaviour depends on how many
    invocations ran earlier in the same process.  Every bench deployment
    builder resets it (see :func:`repro.faas.reset_id_counters`).
    """
    global _next_id
    _next_id = itertools.count(1)


def skip_request_ids(n: int) -> None:
    """Advance the request-id counter past ``n`` ids, as if ``n``
    requests had been built."""
    next(itertools.islice(_next_id, n, n), None)


@slotted
@dataclass
class InvocationRequest:
    """One function invocation request as received by the Controller."""

    function: str
    tenant: str
    #: Scalar arguments (function-specific; used as ML features).  A
    #: value: workloads hand the same dict to many requests, so nothing
    #: may change it.
    args: Dict[str, Any] = field(default_factory=dict)
    #: Input object reference, as "bucket/name" (None for generators).
    input_ref: Optional[str] = None
    #: Where to write the output (bucket name).
    output_bucket: str = "outputs"
    #: Marks requests that belong to a pipeline execution.
    pipeline_id: Optional[str] = None
    #: True for the last stage of a pipeline (outputs are final).
    final_stage: bool = True
    request_id: int = field(default_factory=lambda: next(_next_id))

    @property
    def key(self) -> str:
        return f"{self.tenant}/{self.function}"


@slotted
@dataclass
class Phases:
    """Wall-clock duration of each ETL phase, in seconds."""

    extract: float = 0.0
    transform: float = 0.0
    load: float = 0.0

    @property
    def total(self) -> float:
        return self.extract + self.transform + self.load

    @property
    def el_fraction(self) -> float:
        """Fraction of the invocation spent in Extract+Load."""
        if self.total == 0.0:
            return 0.0
        return (self.extract + self.load) / self.total


@slotted(weakref=True)
@dataclass
class InvocationRecord:
    """Telemetry for one invocation attempt chain (including retries)."""

    request: InvocationRequest
    node: str = ""
    sandbox_id: str = ""
    cold_start: bool = False
    submitted_at: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    phases: Phases = field(default_factory=Phases)
    #: Sandbox memory limit during the (final, successful) attempt.
    memory_limit_mb: float = 0.0
    #: Peak memory actually used by the function body.
    peak_memory_mb: float = 0.0
    #: Memory the tenant booked for the function.
    booked_memory_mb: float = 0.0
    #: ML features extracted from the request (set by OFC; until then
    #: :data:`repro.EMPTY`).
    features: Mapping[str, Any] = field(default_factory=lambda: EMPTY)
    #: Predicted memory (MB), if a predictor was consulted.
    predicted_memory_mb: Optional[float] = None
    #: Raw predicted interval index (before the conservative bump).
    predicted_interval: Optional[int] = None
    #: Bytes moved during Extract and Load (feeds the cache-benefit label).
    bytes_in: int = 0
    bytes_out: int = 0
    #: Predicted caching benefit, if a predictor was consulted.
    should_cache: Optional[bool] = None
    retries: int = 0
    oom_kills: int = 0
    status: str = "pending"  # pending | ok | failed
    #: Why the invocation failed (e.g. a data-plane outage), if it did.
    error: str = ""
    #: Output object reference(s) produced by the invocation (a tuple:
    #: a stock invocation writes one, and a tuple of one is the
    #: smallest container).
    output_refs: Tuple[str, ...] = ()

    @property
    def duration(self) -> float:
        """End-to-end latency, submission to completion."""
        return self.finished_at - self.submitted_at

    @property
    def execution_time(self) -> float:
        """Execution latency excluding queueing/scheduling."""
        return self.finished_at - self.started_at

    @property
    def wasted_memory_mb(self) -> float:
        """Booked-but-unused memory during this invocation."""
        return max(0.0, self.booked_memory_mb - self.peak_memory_mb)
