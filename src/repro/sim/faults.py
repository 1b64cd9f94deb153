"""Injectable fault state consulted by instrumented components.

A :class:`FaultState` is a small shared-mutable record that the fault
injector (:mod:`repro.faults`) flips while episodes are active and that
the data-plane components (the RSDS :class:`~repro.storage.object_store.
ObjectStore`, the :class:`~repro.kvcache.cluster.CacheCluster`, the
rclib proxy) consult on their hot paths.

The contract is *zero cost when disabled*: components keep a ``faults``
attribute that is ``None`` by default, so the undisturbed path pays one
attribute load and an ``is None`` test — no generator hop, no extra
event, no RNG draw.  Episodes may overlap (two brown-outs, a brown-out
inside a slow-network window); each knob therefore nests: the boolean
knobs with an entry counter, the multiplicative ones with the list of
active scales, whose product is recomputed on every transition — so a
knob with no active episode reads exactly 1.0 again (multiplying on
entry and dividing on exit leaves a rounding residue for non-dyadic
scales, and ``any_active`` would then stay true forever).
"""

from __future__ import annotations

from math import prod
from typing import Dict, List


class FaultState:
    """Mutable fault knobs shared between the injector and components.

    * ``rsds_down`` — the RSDS refuses every operation (raises
      :class:`~repro.storage.errors.StoreUnavailable`).
    * ``rsds_latency_scale`` — multiplier on every RSDS op latency
      (brown-out; 1.0 = healthy).
    * ``network_latency_scale`` — multiplier on inter-node cache ops
      (remote get/put, backup replication, migration hand-off).
    * ``bypass_cache`` — degraded mode: rclib skips the cache entirely
      and serves reads/writes straight from the RSDS.
    """

    __slots__ = (
        "rsds_down",
        "rsds_latency_scale",
        "network_latency_scale",
        "bypass_cache",
        "_outage_depth",
        "_bypass_depth",
        "_brownout_scales",
        "_slow_network_scales",
    )

    def __init__(self):
        self.rsds_down = False
        self.rsds_latency_scale = 1.0
        self.network_latency_scale = 1.0
        self.bypass_cache = False
        self._outage_depth = 0
        self._bypass_depth = 0
        # Active episodes' scales, in entry order.
        self._brownout_scales: List[float] = []
        self._slow_network_scales: List[float] = []

    # -- episode transitions (nesting-safe) --------------------------------

    def enter_outage(self) -> None:
        self._outage_depth += 1
        self.rsds_down = True

    def exit_outage(self) -> None:
        self._outage_depth = max(0, self._outage_depth - 1)
        self.rsds_down = self._outage_depth > 0

    def enter_brownout(self, scale: float) -> None:
        self._brownout_scales.append(scale)
        self.rsds_latency_scale = prod(self._brownout_scales, start=1.0)

    def exit_brownout(self, scale: float) -> None:
        self._brownout_scales.remove(scale)
        self.rsds_latency_scale = prod(self._brownout_scales, start=1.0)

    def enter_slow_network(self, scale: float) -> None:
        self._slow_network_scales.append(scale)
        self.network_latency_scale = prod(self._slow_network_scales, start=1.0)

    def exit_slow_network(self, scale: float) -> None:
        self._slow_network_scales.remove(scale)
        self.network_latency_scale = prod(self._slow_network_scales, start=1.0)

    def enter_bypass(self) -> None:
        self._bypass_depth += 1
        self.bypass_cache = True

    def exit_bypass(self) -> None:
        self._bypass_depth = max(0, self._bypass_depth - 1)
        self.bypass_cache = self._bypass_depth > 0

    # -- inspection ---------------------------------------------------------

    @property
    def any_active(self) -> bool:
        return (
            self.rsds_down
            or self.bypass_cache
            or self.rsds_latency_scale != 1.0
            or self.network_latency_scale != 1.0
        )

    def snapshot(self) -> Dict[str, float]:
        return {
            "rsds_down": int(self.rsds_down),
            "rsds_latency_scale": self.rsds_latency_scale,
            "network_latency_scale": self.network_latency_scale,
            "bypass_cache": int(self.bypass_cache),
        }

    def __repr__(self) -> str:
        return (
            f"<FaultState down={self.rsds_down} "
            f"rsds_x{self.rsds_latency_scale:g} "
            f"net_x{self.network_latency_scale:g} "
            f"bypass={self.bypass_cache}>"
        )
