"""The metrics registry: named lazy collectors.

Every number a document reports already lives in some component's own
stats object (``OFCMetrics``, ``RcLibStats``, ``ClusterStats``,
``StoreStats``, …).  A collector, registered with
:meth:`MetricsRegistry.register_collector`, is a callable returning
such an object's flat ``{name: value}`` snapshot.  It runs only when
:meth:`MetricsRegistry.snapshot` is taken, so the run itself pays
nothing.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

__all__ = ["MetricsRegistry"]


class MetricsRegistry:
    """Lazy collectors, snapshotted together."""

    def __init__(self):
        self._collectors: Dict[str, Callable[[], Dict[str, Any]]] = {}

    def register_collector(
        self, name: str, fn: Callable[[], Dict[str, Any]], replace: bool = False
    ) -> None:
        """Attach a lazy source of ``{metric: value}`` pairs.

        ``replace=True`` rebinds an already-registered name (last
        writer wins) instead of raising — for sources that are
        legitimately re-created on one deployment, like a second
        :class:`~repro.faults.injector.FaultInjector`.
        """
        if name in self._collectors and not replace:
            raise ValueError(f"collector {name!r} already registered")
        self._collectors[name] = fn

    def snapshot(self) -> Dict[str, Dict[str, Dict[str, Any]]]:
        """``{"collected": {collector: {metric: value}}}``, taken now."""
        return {
            "collected": {
                name: dict(self._collectors[name]())
                for name in sorted(self._collectors)
            }
        }
