"""Per-tenant cache accounting and the admission/quota rule.

OFC's cache is one harvested pool shared by every tenant on the
platform.  The paper evaluates it with eight cooperative tenants and
never asks who the cached bytes belong to; at production tenant counts
(tens of thousands, heavy-tailed popularity) the pool becomes a
contended resource and the hit ratio a *per-tenant* quantity.  This
module supplies:

* :class:`TenantCacheAccounting` — per-tenant usage, hit/miss and
  admission counters, maintained via the :class:`CacheCluster` object
  hooks and resynchronised by the cache agent's periodic sweep (the
  fault paths — crash, recover — bypass the hooks, so the sweep is the
  source of truth after failures), and the quota rule itself
  (:meth:`~TenantCacheAccounting.limit_for`), one of ``none`` (the
  paper's behaviour), ``static`` (a fixed fraction of the pool per
  tenant) or ``proportional`` (entitlement follows each tenant's share
  of recent cache demand, floored at :data:`PROPORTIONAL_FLOOR` of the
  equal split so idle-ish tenants are not starved);
* :func:`jain_index` — the fairness metric the ``repro tenants``
  experiment reports over per-tenant hit ratios.

With the default ``none`` policy the accounting is pure bookkeeping:
no admission is ever refused and no simulation event is created, so
seeded runs remain bit-identical to a tree without this module.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

__all__ = ["TenantCacheAccounting", "jain_index"]

#: Under ``proportional``, the least any active tenant is entitled to,
#: as a fraction of the equal split (0.5 = half its fair share).
PROPORTIONAL_FLOOR = 0.5
#: EWMA retention applied to the demand weights on every decaying resync.
DEMAND_DECAY = 0.5


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``.

    1.0 when every tenant fares equally, ``1/n`` when one tenant gets
    everything.  An empty or all-zero population is defined as fair
    (1.0): nobody is being favoured.
    """
    n = len(values)
    if n == 0:
        return 1.0
    total = float(sum(values))
    squares = float(sum(v * v for v in values))
    if squares <= 0.0:
        return 1.0
    return (total * total) / (n * squares)


class TenantCacheAccounting:
    """Per-tenant cache usage, outcome counters and quota rule.

    Usage is maintained incrementally through the cluster's
    admitted/removed object hooks; :meth:`resync` recomputes it from a
    master-object scan (run by the cache agent's periodic sweep) to
    absorb any drift from fault paths that bypass the hooks.

    ``policy`` names the quota rule: ``none``, ``static`` or
    ``proportional``.  ``static_fraction`` is each tenant's share of
    the pool under ``static`` (typically ``1 / expected_tenants``:
    strongly fair, but a hot tenant cannot borrow the shares cold
    tenants leave idle).
    """

    def __init__(self, policy: str = "none", static_fraction: float = 0.01):
        if policy not in ("none", "static", "proportional"):
            raise ValueError(f"unknown tenant quota policy: {policy}")
        if policy == "static" and static_fraction <= 0.0:
            raise ValueError(
                f"static quota fraction must be > 0: {static_fraction}"
            )
        self.policy = policy
        self.static_fraction = static_fraction
        self.usage_bytes: Dict[str, float] = {}
        self.hits: Dict[str, int] = {}
        self.misses: Dict[str, int] = {}
        self.admitted: Dict[str, int] = {}
        self.rejected: Dict[str, int] = {}
        self.evicted: Dict[str, int] = {}
        #: Decayed per-tenant byte traffic, the proportional-share weight.
        self.demand_bytes: Dict[str, float] = {}
        self.total_demand_bytes: float = 0.0

    # -- admission -------------------------------------------------------

    def limit_for(self, tenant: str, capacity_bytes: int) -> Optional[float]:
        """Byte entitlement for ``tenant``; ``None`` means unlimited.

        Under ``proportional`` each tenant's weight is its decayed byte
        traffic through the cache (hits + misses), and the entitlement
        is the pool scaled by the tenant's weight share, floored at
        :data:`PROPORTIONAL_FLOOR` times the equal split.  The demand
        decays on every resync, so the shares track the workload's
        diurnal shape.
        """
        policy = self.policy
        if policy == "none":
            return None
        if policy == "static":
            return capacity_bytes * self.static_fraction
        active = len(self.demand_bytes) or 1
        equal_share = capacity_bytes / active
        total_demand = self.total_demand_bytes
        if total_demand <= 0.0:
            return equal_share
        weight = self.demand_bytes.get(tenant, 0.0) / total_demand
        return max(PROPORTIONAL_FLOOR * equal_share, capacity_bytes * weight)

    def admit(self, tenant: str, size: int, capacity_bytes: int) -> bool:
        """Policy check for caching ``size`` more bytes for ``tenant``."""
        limit = self.limit_for(tenant, capacity_bytes)
        if limit is None:
            return True
        if self.usage_bytes.get(tenant, 0.0) + size <= limit:
            return True
        self.rejected[tenant] = self.rejected.get(tenant, 0) + 1
        return False

    def over_quota(self, tenant: str, capacity_bytes: int) -> bool:
        """True when ``tenant`` currently holds more than its entitlement."""
        limit = self.limit_for(tenant, capacity_bytes)
        if limit is None:
            return False
        return self.usage_bytes.get(tenant, 0.0) > limit

    # -- usage hooks (wired to CacheCluster.on_object_admitted/removed) --

    def on_object_admitted(self, tenant: Optional[str], size: int) -> None:
        if not tenant:
            return
        self.usage_bytes[tenant] = self.usage_bytes.get(tenant, 0.0) + size
        self.admitted[tenant] = self.admitted.get(tenant, 0) + 1

    def on_object_removed(self, tenant: Optional[str], size: int) -> None:
        if not tenant:
            return
        remaining = self.usage_bytes.get(tenant, 0.0) - size
        if remaining > 0.0:
            self.usage_bytes[tenant] = remaining
        else:
            self.usage_bytes.pop(tenant, None)
        self.evicted[tenant] = self.evicted.get(tenant, 0) + 1

    # -- data-plane outcomes (wired to the rclib proxy) ------------------

    def record_hit(self, tenant: str, size: int) -> None:
        self.hits[tenant] = self.hits.get(tenant, 0) + 1
        self._record_demand(tenant, size)

    def record_miss(self, tenant: str, size: int) -> None:
        self.misses[tenant] = self.misses.get(tenant, 0) + 1
        self._record_demand(tenant, size)

    def _record_demand(self, tenant: str, size: int) -> None:
        self.demand_bytes[tenant] = self.demand_bytes.get(tenant, 0.0) + size
        self.total_demand_bytes += size

    # -- maintenance -----------------------------------------------------

    def reset_counters(self) -> None:
        """Zero the outcome counters (hits, misses, admissions, ...).

        Usage and demand are live state and survive: a bench warmup
        wants fresh counters over a warmed cache, not an empty one.
        """
        self.hits = {}
        self.misses = {}
        self.admitted = {}
        self.rejected = {}
        self.evicted = {}

    def resync(self, objects: Iterable, decay: bool = True) -> None:
        """Recompute usage from the cluster's master objects and decay
        the demand weights.  Called from the cache agent's periodic
        sweep; ``objects`` yields anything with ``size`` and a
        ``flags['tenant']`` attribution.  ``decay=False`` skips the
        demand decay (only one node's agent per period applies it)."""
        usage: Dict[str, float] = {}
        for obj in objects:
            tenant = obj.flags.get("tenant")
            if not tenant:
                continue
            usage[tenant] = usage.get(tenant, 0.0) + obj.size
        self.usage_bytes = usage
        if not decay:
            return
        decayed = {
            tenant: value * DEMAND_DECAY
            for tenant, value in self.demand_bytes.items()
            if value * DEMAND_DECAY >= 1.0
        }
        self.demand_bytes = decayed
        self.total_demand_bytes = sum(decayed.values())

    # -- reporting -------------------------------------------------------

    def tenants_seen(self) -> list:
        return sorted(set(self.hits) | set(self.misses))

    def hit_ratio(self, tenant: str) -> Optional[float]:
        hits = self.hits.get(tenant, 0)
        total = hits + self.misses.get(tenant, 0)
        if total == 0:
            return None
        return hits / total

    def hit_ratios(self) -> Dict[str, float]:
        """Per-tenant hit ratio for every tenant that touched the cache."""
        out = {}
        for tenant in self.tenants_seen():
            ratio = self.hit_ratio(tenant)
            if ratio is not None:
                out[tenant] = ratio
        return out

    def fairness_index(self) -> float:
        """Jain's index over the per-tenant hit ratios."""
        return jain_index(list(self.hit_ratios().values()))

    def snapshot(self) -> Dict[str, float]:
        """Flat summary for the :class:`~repro.obs.MetricsRegistry`."""
        ratios = self.hit_ratios()
        return {
            "policy": self.policy,
            "tenants_seen": len(ratios),
            "fairness_index": self.fairness_index(),
            "total_hits": sum(self.hits.values()),
            "total_misses": sum(self.misses.values()),
            "admissions": sum(self.admitted.values()),
            "rejections": sum(self.rejected.values()),
            "evictions": sum(self.evicted.values()),
            "usage_bytes": sum(self.usage_bytes.values()),
        }
