"""OpenWhisk-like FaaS platform substrate.

Implements the slice of Apache OpenWhisk the paper builds on (§2.1):

* a Controller with a LoadBalancer that routes each invocation to a
  *home* worker computed from a hash of (tenant, function), falling back
  to the least-loaded node;
* per-worker Invokers that create and reuse Docker-like sandboxes, keep
  them alive for 600 s after their last use, and enforce per-sandbox
  memory limits (cgroup semantics, including the OOM killer);
* single-invocation-per-sandbox, never-shared-across-functions sandbox
  management;
* sequences/pipelines of functions, with fan-out stages;
* automatic retry of failed (OOM-killed) invocations.

OFC plugs into this platform exclusively through the strategy hooks on
:class:`~repro.faas.platform.FaaSPlatform` (scheduler, sizing policy,
data-client factory, monitor, completion callbacks) — mirroring how the
paper modifies OpenWhisk rather than replacing it.
"""

from repro.faas.dataclient import DataClient, DirectStoreClient
from repro.faas.errors import (
    FaaSError,
    InvocationFailed,
    NoSuchFunction,
    OOMKilled,
    ResourceExhausted,
)
from repro.faas.invoker import Invoker
from repro.faas.keepalive import (
    FixedKeepAlive,
    HistogramKeepAlive,
    KeepAlivePolicy,
)
from repro.faas.pipeline import Pipeline, Stage
from repro.faas.platform import FaaSPlatform, PlatformConfig
from repro.faas.records import (
    InvocationRecord,
    InvocationRequest,
    Phases,
)
from repro.faas.registry import FunctionRegistry, FunctionSpec
from repro.faas.sandbox import Sandbox, SandboxState
from repro.faas.scheduler import HomeWorkerScheduler, Scheduler


def reset_id_counters() -> None:
    """Restart every process-global id counter (requests, sandboxes,
    pipelines).

    The counters run monotonically for the life of the process, and
    some ids leak into simulated state (pipeline intermediates embed
    the request id in their object keys), so back-to-back deployments
    in one process are not independent: the second sees different keys
    than it would in a fresh process.  Every deployment builder of
    :mod:`repro.bench.envs` calls this first, so a seeded result does
    not depend on what ran before it in the process (or on the
    ``--workers`` fan-out).
    """
    from repro.faas.pipeline import reset_pipeline_ids
    from repro.faas.records import reset_request_ids
    from repro.faas.sandbox import reset_sandbox_ids

    reset_request_ids()
    reset_sandbox_ids()
    reset_pipeline_ids()


__all__ = [
    "DataClient",
    "DirectStoreClient",
    "FaaSError",
    "FaaSPlatform",
    "FixedKeepAlive",
    "HistogramKeepAlive",
    "KeepAlivePolicy",
    "FunctionRegistry",
    "FunctionSpec",
    "HomeWorkerScheduler",
    "InvocationFailed",
    "InvocationRecord",
    "InvocationRequest",
    "Invoker",
    "NoSuchFunction",
    "OOMKilled",
    "Phases",
    "Pipeline",
    "PlatformConfig",
    "ResourceExhausted",
    "reset_id_counters",
    "Sandbox",
    "SandboxState",
    "Scheduler",
    "Stage",
]
