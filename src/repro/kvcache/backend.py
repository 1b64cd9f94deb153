"""The cache contract every architecture implements, and its cost meter.

OFC's data plane (the rclib proxy), control plane (persistor, routing,
pipeline cleanup) and fault machinery talk to the cache through
:class:`CacheBackend`, so rival architectures can be swapped in behind
one config knob (``OFCConfig.cache_backend``, built by
:func:`repro.cache.make_backend`).  Three backends ship: the paper's
harvested RAMCloud-style cluster
(:class:`repro.kvcache.cluster.CacheCluster`, deployed as
:class:`repro.cache.ofc_backend.OFCCacheBackend`), a Faa$T-style
per-application auto-scaling cache (:mod:`repro.cache.faast`) and an
InfiniCache-style erasure-coded cache over ephemeral functions
(:mod:`repro.cache.infinicache`).

Every backend also carries a :class:`CostMeter`: a pure-accounting
integrator of provisioned memory over simulated time, from which the
``cachewars`` grid derives each architecture's cost figure.  The meter
never schedules events.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.kvcache.objects import CacheObject, MAX_OBJECT_SIZE
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
    """The cache contract, and the state and behaviour every backend
    shares.

    The platform calls :meth:`start` when the simulation begins.  A
    backend implements the rest of the surface; data-plane members are
    generators driven by the kernel, control-plane members take no
    simulated time.

    * ``put(key, value, size, caller, flags=None)`` returns the hosting
      node.  It raises :class:`~repro.kvcache.errors.ObjectTooLarge`
      without touching any state, or
      :class:`~repro.kvcache.errors.CapacityExceeded` leaving no copy of
      ``key`` that a later read or promotion can serve.  An accepted
      overwrite of a served key bumps its version by one.
    * ``get(key, caller)`` returns the served object itself, not a
      copy, which the caller must neither mutate nor keep; ``NoSuchKey``
      on a miss.  Its ``flags`` may be shared with the key's backup
      copies (the cluster's are), and a backend that shares them
      installs a new dict on a flag update instead of changing it.
      ``delete(key, caller)`` removes every copy; ``NoSuchKey`` when
      the backend knows nothing of the key.
    * ``peek(key)`` / ``location_of(key)`` / :meth:`contains`: the
      served object, its node, whether there is one.
    * ``set_flags(key, **flags)`` lands on every copy a later promotion
      or restore could serve; ``NoSuchKey`` when there is none.
    * ``objects()``: lazy ``(node, object)`` over the primary copies.
    * ``total_capacity`` / ``total_used`` / :attr:`quota_capacity`.
    * ``crash(node)``, ``restart(node)`` (returns purged copies),
      ``recover(node)`` (returns objects made readable again) and
      ``repair()`` (returns keys brought back to full redundancy).
    * ``stats_snapshot()`` with at least ``live_servers``,
      ``under_replicated`` and ``lost_objects``; :meth:`cost_snapshot`.

    What may be lost, and when, is declared once and checked by one
    state machine over every registered backend
    (``tests/cache/test_backend_machine.py``): a served object carries
    the latest acknowledged value, version and flags; a clean key (the
    RSDS has it) may be dropped at any time; a dirty key (its write-back
    pending) is at worst unavailable while the backend restores it after
    a crash or a reclamation, and lost only by a crash that counts it in
    ``lost_objects``.
    """

    #: Registry name ("ofc", "faast", "infinicache").
    name = "abstract"
    #: Configured aggregate ceiling for quota arithmetic (None: none).
    #: The live ``total_capacity`` can legitimately sit above it, so
    #: per-tenant quotas divide the clamped :attr:`quota_capacity`.
    quota_cap_bytes: Optional[int] = None

    def __init__(
        self,
        kernel: Kernel,
        node_ids: List[str],
        rng=None,
        max_object_size: int = MAX_OBJECT_SIZE,
    ):
        self.kernel = kernel
        self.node_ids = list(node_ids)
        self.rng = rng
        self.max_object_size = max_object_size
        #: Injected fault state (:class:`repro.sim.faults.FaultState`);
        #: ``None`` keeps the data plane on the zero-cost path.
        self.faults = None
        #: Object-lifecycle hooks (per-tenant accounting): called with a
        #: :class:`CacheObject` when a primary copy is placed or removed
        #: on the regular data plane.  Fault paths may skip them — the
        #: accounting resyncs from :meth:`objects`.
        self.on_object_admitted: Optional[Callable] = None
        self.on_object_removed: Optional[Callable] = None
        self.cost = CostMeter(kernel)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Spawn the backend's periodic processes (idempotent)."""

    # -- shared surface ------------------------------------------------------

    def contains(self, key: str) -> bool:
        return self.location_of(key) is not None

    @property
    def quota_capacity(self) -> int:
        """Capacity base for tenant-quota arithmetic: the live total,
        clamped at the configured aggregate cap (if any)."""
        total = self.total_capacity
        if self.quota_cap_bytes is None:
            return total
        return min(total, self.quota_cap_bytes)

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

    # -- helpers -------------------------------------------------------------

    def _delay(self, model, nbytes: int = 0) -> float:
        # Bare-delay float for the caller to yield: bit-identical to a
        # kernel.timeout() (same queue slot, same sequence number — see
        # Process._resume's float arm) without allocating an event.
        return model.sample(self.rng, nbytes)

    def _remote_delay(self, model, nbytes: int = 0) -> float:
        """Delay for an inter-node op; scaled during slow-network faults."""
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
