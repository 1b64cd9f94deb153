"""OFC configuration: every tunable the paper names, with its value."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.latency import MB


@dataclass
class OFCConfig:
    """Knobs of the OFC system, defaulting to the paper's settings."""

    # -- ML / prediction (§5) ------------------------------------------------
    #: Classification interval size; 16 MB is the paper's choice.
    interval_mb: float = 16.0
    #: OpenWhisk's maximum sandbox memory (upper end of the range).
    max_memory_mb: float = 2048.0
    #: Invocations before the first maturity check (§7.1.3).
    min_history_for_maturity: int = 100
    #: Maturation criterion: fraction of exact-or-over predictions.
    maturity_eo_threshold: float = 0.90
    #: Maturation criterion: fraction of underpredictions within one
    #: interval of the truth.
    maturity_near_threshold: float = 0.50
    #: Conservative post-maturity adjustment: predict one interval up.
    bump_intervals: int = 1
    #: Retrain/maturity-check cadence, in completed invocations.
    retrain_every: int = 25
    #: After maturity, keep only underpredictions and extreme
    #: overpredictions (k - k* > this) in the training set (§5.3.3).
    extreme_over_intervals: int = 6
    #: Weight given to underprediction samples on retraining.
    underprediction_weight: float = 3.0
    #: E+L fraction above which caching is considered beneficial (§5.2).
    cache_benefit_threshold: float = 0.5

    # -- monitor (§5.3.1) ------------------------------------------------------
    #: Dynamic cap raising only for invocations running at least this long.
    monitor_min_runtime_s: float = 3.0
    #: Headroom added when the Monitor raises a sandbox's cap.
    monitor_headroom_mb: float = 32.0

    # -- cache policy (§6.3) ----------------------------------------------------
    #: Maximum object size admitted to the cache.
    max_cacheable_bytes: int = 10 * MB
    #: Periodic eviction cadence.
    eviction_period_s: float = 300.0
    #: Evict objects read fewer than this many times...
    eviction_min_accesses: int = 5
    #: ...or idle for longer than this.
    eviction_max_idle_s: float = 30 * 60.0
    #: Optional ceiling on each node's harvested cache, in MB (None =
    #: harvest everything sandboxes and slack leave free, the paper's
    #: behaviour).  Operators cap the harvest to bound cache churn; the
    #: multi-tenant bench uses it to study quota policies under a
    #: contended pool.
    cache_cap_mb: Optional[float] = None

    # -- autoscaling (§6.4) --------------------------------------------------------
    #: Initial per-node slack pool.
    slack_initial_mb: float = 100.0
    #: Slack re-estimation cadence.
    slack_adjust_period_s: float = 120.0
    #: Memory-churn sampling cadence for the sliding window.
    churn_sample_period_s: float = 60.0
    #: Sliding-window length, in churn samples.
    churn_window_samples: int = 5

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

    # -- cache cluster ---------------------------------------------------------------
    replication_factor: int = 2

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
    #: Extra capacity provisioned above the observed working set.
    faast_ws_headroom: float = 0.25
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
