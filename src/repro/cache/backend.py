"""The pluggable cache-architecture seam.

OFC's data plane (the rclib proxy), control plane (persistor, routing,
pipeline cleanup) and fault machinery all talk to the cache through the
narrow surface defined here, so rival architectures can be swapped in
behind one config knob (``OFCConfig.cache_backend``).  Three backends
ship: the paper's harvested design (:mod:`repro.cache.ofc_backend`),
a Faa$T-style per-application auto-scaling cache
(:mod:`repro.cache.faast`) and an InfiniCache-style ephemeral-function
cache (:mod:`repro.cache.infinicache`).

Every data-plane method is a generator driven by the simulation kernel.
:class:`repro.kvcache.cluster.CacheCluster` is the reference
implementation of this contract, and the ``ofc`` backend is that class
itself (a subclass adding the deployment wiring).  Backends also carry a
:class:`CostMeter`: a pure-accounting integrator of provisioned memory
over simulated time, from which the ``cachewars`` bench derives each
architecture's cost figure.  The meter never schedules events — the
default OFC path stays bit-identical to a build without it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Iterator, List, Optional, Tuple

from repro.core.config import OFCConfig
from repro.kvcache.objects import CacheObject
from repro.sim.kernel import Kernel

# -- cost model (normalized units, not dollars) -----------------------------
#
# The comparison only needs *relative* cost: memory reserved exclusively
# for caching (dedicated sandboxes, Faa$T cachelets, InfiniCache
# lambdas) is priced at the provider's serverless memory rate, while
# OFC's harvested memory is idle keep-alive RAM that would be wasted
# anyway — the paper's core claim — and is priced at a residual
# opportunity cost.  Per-operation charges capture InfiniCache's
# lambda-invocation and backup traffic.

#: Cost units per GB-second of memory provisioned exclusively for cache.
DEDICATED_GB_S = 1.0
#: Cost units per GB-second of harvested (otherwise idle) memory.
HARVESTED_GB_S = 0.1
#: Cost units per ephemeral-function (lambda) invocation.
LAMBDA_INVOCATION = 2e-4
#: Cost units per backup/restore op against the object store.
BACKUP_OP = 1e-4


class CostMeter:
    """Integrates provisioned cache memory over simulated time.

    Levels are piecewise-constant; :meth:`set_memory` advances the
    integral to ``kernel.now`` before applying the new level, so the
    meter costs nothing between changes and never touches the event
    queue.
    """

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self._last_t = kernel.now
        self._dedicated_mb = 0.0
        self._harvested_mb = 0.0
        self.dedicated_mb_s = 0.0
        self.harvested_mb_s = 0.0
        #: Per-op counters priced by :meth:`cost_units`.
        self.ops: Dict[str, int] = {"lambda_invocations": 0, "backup_ops": 0}

    def advance(self) -> None:
        now = self.kernel.now
        dt = now - self._last_t
        if dt > 0:
            self.dedicated_mb_s += self._dedicated_mb * dt
            self.harvested_mb_s += self._harvested_mb * dt
            self._last_t = now

    def set_memory(
        self,
        dedicated_mb: Optional[float] = None,
        harvested_mb: Optional[float] = None,
    ) -> None:
        self.advance()
        if dedicated_mb is not None:
            self._dedicated_mb = dedicated_mb
        if harvested_mb is not None:
            self._harvested_mb = harvested_mb

    def reset(self) -> None:
        """Zero the integrals and op counters, keeping current levels
        (benches call this after warmup so the figure covers exactly
        the measured window)."""
        self._last_t = self.kernel.now
        self.dedicated_mb_s = 0.0
        self.harvested_mb_s = 0.0
        self.ops = {"lambda_invocations": 0, "backup_ops": 0}

    def count(self, name: str, n: int = 1) -> None:
        self.ops[name] = self.ops.get(name, 0) + n

    def cost_units(self) -> float:
        self.advance()
        return (
            (self.dedicated_mb_s / 1024.0) * DEDICATED_GB_S
            + (self.harvested_mb_s / 1024.0) * HARVESTED_GB_S
            + self.ops.get("lambda_invocations", 0) * LAMBDA_INVOCATION
            + self.ops.get("backup_ops", 0) * BACKUP_OP
        )


class CacheBackend:
    """Abstract cache architecture behind OFC's data plane.

    Subclasses implement the generator data plane plus the fault
    surface; the platform calls :meth:`attach` once its own components
    exist and :meth:`start` when the simulation begins.
    """

    #: Registry name ("ofc", "faast", "infinicache").
    name = "abstract"

    def __init__(
        self,
        kernel: Kernel,
        node_ids: List[str],
        config: Optional[OFCConfig] = None,
        rng=None,
        max_object_size: Optional[int] = None,
    ):
        self.kernel = kernel
        self.node_ids = list(node_ids)
        self.config = config or OFCConfig()
        self.rng = rng
        self.max_object_size = (
            max_object_size
            if max_object_size is not None
            else self.config.max_cacheable_bytes
        )
        #: Injected fault state (:class:`repro.sim.faults.FaultState`).
        self.faults = None
        #: Object-lifecycle hooks (per-tenant accounting): called with a
        #: :class:`CacheObject` when a primary copy is placed/removed on
        #: the regular data plane.  Fault paths may skip them — the
        #: accounting resyncs from :meth:`objects`.
        self.on_object_admitted: Optional[Callable] = None
        self.on_object_removed: Optional[Callable] = None
        self.cost = CostMeter(kernel)
        # attach() wires these.
        self.platform = None
        self.persistor = None
        self.metrics = None
        self.tenancy = None

    # -- lifecycle -----------------------------------------------------------

    def attach(
        self, platform=None, persistor=None, metrics=None, tenancy=None
    ) -> None:
        """Late wiring: called once the platform's components exist."""
        self.platform = platform
        self.persistor = persistor
        self.metrics = metrics
        self.tenancy = tenancy

    def start(self) -> None:
        """Spawn the backend's periodic processes (idempotent)."""

    # -- data plane (generator methods, kernel-driven) -----------------------

    def put(
        self,
        key: str,
        value: Any,
        size: int,
        caller: str,
        flags: Optional[Dict[str, Any]] = None,
    ) -> Generator[Any, Any, str]:
        """Write an object; returns the hosting node id.  Raises
        :class:`~repro.kvcache.errors.ObjectTooLarge` /
        :class:`~repro.kvcache.errors.CapacityExceeded` on rejection."""
        raise NotImplementedError

    def get(self, key: str, caller: str) -> Generator[Any, Any, CacheObject]:
        """Read an object; raises
        :class:`~repro.kvcache.errors.NoSuchKey` on miss."""
        raise NotImplementedError

    def delete(self, key: str, caller: str) -> Generator[Any, Any, None]:
        raise NotImplementedError

    def peek(self, key: str) -> Optional[CacheObject]:
        """Control-plane read: no latency, no access accounting."""
        raise NotImplementedError

    def set_flags(self, key: str, **flags: Any) -> None:
        """Update an object's flags on every surviving copy (a
        post-crash promotion/restore must observe current flags)."""
        raise NotImplementedError

    def contains(self, key: str) -> bool:
        return self.peek(key) is not None

    def location_of(self, key: str) -> Optional[str]:
        """Node currently able to serve the object, if any."""
        raise NotImplementedError

    def objects(self) -> Iterator[Tuple[str, CacheObject]]:
        """Lazily yield ``(hosting_node, object)`` for every primary
        copy (control plane: pipeline cleanup, tenancy resync)."""
        raise NotImplementedError

    # -- capacity ------------------------------------------------------------

    @property
    def total_capacity(self) -> int:
        raise NotImplementedError

    @property
    def total_used(self) -> int:
        raise NotImplementedError

    @property
    def quota_capacity(self) -> int:
        """Capacity base for tenant-quota arithmetic (clamped at any
        configured cap; defaults to the live total)."""
        return self.total_capacity

    # -- fault surface (driven by repro.faults.injector) ---------------------

    def crash(self, node_id: str) -> None:
        """Fail-stop everything the backend runs on ``node_id``."""
        raise NotImplementedError

    def restart(self, node_id: str) -> int:
        """Bring a crashed node back; returns purged stale copies."""
        raise NotImplementedError

    def recover(self, node_id: str) -> Generator[Any, Any, int]:
        """Re-establish readability of objects the crashed node held;
        returns the number recovered."""
        raise NotImplementedError

    def repair(self) -> Generator[Any, Any, int]:
        """Restore redundancy degraded by earlier faults; returns the
        number of keys repaired."""
        raise NotImplementedError

    # -- observability -------------------------------------------------------

    def stats_snapshot(self) -> Dict[str, Any]:
        """Flat counter/gauge snapshot (the ``kvcache`` collector)."""
        raise NotImplementedError

    def cost_snapshot(self) -> Dict[str, Any]:
        """Cost-model snapshot (the ``cache_backend`` collector)."""
        cost = self.cost
        cost.advance()
        return {
            "backend": self.name,
            "dedicated_mb_s": cost.dedicated_mb_s,
            "harvested_mb_s": cost.harvested_mb_s,
            "lambda_invocations": cost.ops.get("lambda_invocations", 0),
            "backup_ops": cost.ops.get("backup_ops", 0),
            "cost_units": cost.cost_units(),
        }

    # -- latency helpers (shared with CacheCluster's semantics) --------------

    def _delay(self, model, nbytes: int = 0) -> float:
        return model.sample(self.rng, nbytes)

    def _remote_delay(self, model, nbytes: int = 0) -> float:
        duration = model.sample(self.rng, nbytes)
        faults = self.faults
        if faults is not None:
            duration *= faults.network_latency_scale
        return duration

    def _admitted(self, obj: CacheObject) -> None:
        if self.on_object_admitted is not None:
            self.on_object_admitted(obj)

    def _removed(self, obj: CacheObject) -> None:
        if self.on_object_removed is not None:
            self.on_object_removed(obj)
