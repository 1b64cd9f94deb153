"""OFC configuration: what a caller varies, defaulting to the paper.

A setting nothing varies is a module constant beside its one reader
(the trainer's maturation criterion in :mod:`repro.core.trainer`, the
Monitor's threshold in :mod:`repro.core.monitor`, the eviction, slack
and churn periods in :mod:`repro.core.cache_agent`, the largest
cacheable object in :mod:`repro.kvcache.objects`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class OFCConfig:
    """What a caller varies in the OFC system: the architecture, the
    quota policy, the consistency mode and the backends' geometry.
    Every default is the paper's setting (or, for the rival backends,
    their papers')."""

    # -- ML / prediction (§5) ------------------------------------------------
    #: Conservative post-maturity adjustment: predict one interval up.
    bump_intervals: int = 1

    # -- cache policy (§6.3) ----------------------------------------------------
    #: Optional ceiling on each node's harvested cache, in MB (None =
    #: harvest everything sandboxes and slack leave free, the paper's
    #: behaviour).  Operators cap the harvest to bound cache churn; the
    #: multi-tenant bench uses it to study quota policies under a
    #: contended pool.
    cache_cap_mb: Optional[float] = None

    # -- multi-tenant cache quotas (beyond the paper) ------------------------------
    #: Cross-tenant admission policy: "none" (the paper's behaviour,
    #: bit-identical to a quota-free build), "static" (fixed fraction of
    #: the pool per tenant) or "proportional" (demand-proportional share
    #: with a floor, ``repro.core.tenancy.PROPORTIONAL_FLOOR``).  See
    #: :mod:`repro.core.tenancy`.
    tenant_quota_policy: str = "none"
    #: Per-tenant pool fraction under the "static" policy (1/expected
    #: tenants is the usual setting).
    tenant_static_fraction: float = 0.01

    # -- storage consistency (§6.2) --------------------------------------------------
    #: True: synchronous shadow writes + persistors + webhooks (full
    #: transparency).  False: relaxed mode (lazy write-back only).
    strict_consistency: bool = True
    #: After exhausting its retry budget during an RSDS outage, the
    #: persistor requeues itself instead of giving up — acked write-back
    #: data stays pending (and boostable) until the store recovers.
    #: False restores the old drop-on-give-up behaviour (the chaos
    #: harness's pre-fix regression mode).
    persistor_requeue: bool = True

    # -- pluggable cache architecture (see repro.cache) ------------------------------
    #: Which cache architecture backs the data plane: "ofc" (the paper's
    #: harvested RAMCloud design, the default and the only bit-identical
    #: path), "faast" (Faa$T-style per-application auto-scaling cache)
    #: or "infinicache" (InfiniCache-style erasure-coded ephemeral
    #: sandboxes with object-store backup).
    cache_backend: str = "ofc"

    # Faa$T backend knobs (arXiv:2104.13869).
    #: Mirror every shard onto a backup node and promote the mirror on
    #: a crash (closes the chaos-harness finding that a node crash
    #: dropped dirty write-back data with the app's shards).  False
    #: restores the unreplicated pre-fix backend for regression tests.
    faast_replication: bool = True
    #: Size of one per-application cache shard ("cachelet").
    faast_shard_mb: float = 64.0
    #: Horizontal-scaling ceiling per application.
    faast_max_shards_per_app: int = 8
    #: Scaling-decision cadence.
    faast_scale_period_s: float = 10.0
    #: Accesses per period one shard is deemed to absorb (frequency axis).
    faast_ops_per_shard: int = 200
    #: Idle scaling periods before an application's cache is torn down.
    faast_idle_periods: int = 3

    # InfiniCache backend knobs (arXiv:2001.10483).
    #: Erasure-coding geometry: k data + r parity chunks per object.
    infinicache_data_chunks: int = 4
    infinicache_parity_chunks: int = 2
    #: Memory of one ephemeral sandbox ("lambda").
    infinicache_lambda_mb: float = 64.0
    #: Sandbox pool size per node.
    infinicache_lambdas_per_node: int = 4
    #: Provider-side sandbox lifetime before reclamation.
    infinicache_lifetime_s: float = 600.0
    #: Reclamation-scan cadence (expired sandboxes are replaced and
    #: their chunks warmed up from peers or the backup store).
    infinicache_reclaim_period_s: float = 30.0
    #: Periodic backup cadence (objects copied to the object store).
    infinicache_backup_period_s: float = 120.0
