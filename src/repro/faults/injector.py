"""FaultInjector: drives a fault schedule through an OFC deployment.

The injector owns the shared :class:`~repro.sim.faults.FaultState` and
wires it into the deployment's instrumented components (the RSDS store
and the cache cluster; the rclib proxy reads the cluster's reference).
Its driver process then walks the schedule:

* ``crash`` — fail-stop the node, wait the failure-detection delay,
  run cluster recovery (promote surviving backups) and a repair pass
  (restore the replication factor);
* ``restart`` — bring the node back (purging stale disk backups) and
  run a repair pass so the returned disk capacity is used;
* episodes — flip the corresponding :class:`FaultState` knob for the
  episode's duration in a dedicated process, so episodes overlap
  freely with node events and each other.

Everything is traced (``fault.*`` spans) and exported through the
deployment's metrics registry under the ``faults`` collector.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Generator, Optional

from repro.faults.schedule import FaultEvent, FaultSchedule, ScheduleError
from repro.sim.faults import FaultState
from repro.sim.kernel import Process

#: Simulated failure-detection latency: the gap between a fail-stop and
#: the coordinator starting recovery (membership timeout).
DEFAULT_DETECTION_DELAY_S = 0.5


@dataclass
class FaultInjectorStats:
    crashes: int = 0
    restarts: int = 0
    recovered_objects: int = 0
    purged_backups: int = 0
    repaired_keys: int = 0
    outages: int = 0
    brownouts: int = 0
    slow_network_episodes: int = 0
    bypass_episodes: int = 0


class FaultInjector:
    """Applies a :class:`FaultSchedule` to an :class:`OFCPlatform`."""

    def __init__(
        self,
        ofc,
        schedule: FaultSchedule,
        detection_delay_s: float = DEFAULT_DETECTION_DELAY_S,
    ):
        self.ofc = ofc
        self.kernel = ofc.kernel
        self.schedule = schedule
        self.detection_delay_s = detection_delay_s
        self.state = FaultState()
        # Wire the shared fault state into the instrumented components.
        self.backend = ofc.backend
        # Reject schedules targeting nodes the deployment does not have,
        # with the known set in the message (not a KeyError deep inside
        # the backend's crash path).
        known = self.backend.node_ids
        unknown = [n for n in schedule.nodes() if n not in known]
        if unknown:
            raise ScheduleError(
                f"schedule targets unknown node(s) {unknown}; this "
                f"deployment's nodes are {sorted(known)}"
            )
        ofc.store.faults = self.state
        self.backend.faults = self.state
        self.stats = FaultInjectorStats()
        registry = getattr(ofc, "obs", None)
        if registry is not None:
            # Last writer wins: a second injector on the same
            # deployment rebinds the collector to its own stats (the
            # old `except ValueError: pass` left the first injector's
            # snapshot bound forever, silently discarding the stats of
            # every injector after it).
            registry.register_collector("faults", self.snapshot, replace=True)
        self._driver: Optional[Process] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> Process:
        """Spawn the schedule driver (idempotent)."""
        if self._driver is None:
            self._driver = self.kernel.process(
                self._drive(), name="fault-injector"
            )
        return self._driver

    def snapshot(self) -> Dict[str, Any]:
        """Metrics collector: counters plus the live fault knobs."""
        snap: Dict[str, Any] = asdict(self.stats)
        snap.update(self.state.snapshot())
        return snap

    # -- driver ------------------------------------------------------------

    def _drive(self) -> Generator:
        for event in self.schedule.events:
            delay = event.at - self.kernel.now
            if delay > 0:
                yield delay
            self._apply(event)

    def _apply(self, event: FaultEvent) -> None:
        kind = event.kind
        if kind == "crash":
            self.kernel.process(
                self._crash(event.node), name=f"fault-crash-{event.node}"
            )
        elif kind == "restart":
            self.kernel.process(
                self._restart(event.node), name=f"fault-restart-{event.node}"
            )
        else:
            self.kernel.process(
                self._episode(event), name=f"fault-{kind}"
            )

    # -- node events -------------------------------------------------------

    def _crash(self, node: str) -> Generator:
        tracer = self.kernel.tracer
        span = tracer.start("fault.crash", node=node) if tracer is not None else None
        self.backend.crash(node)
        self.stats.crashes += 1
        # Failure detection: recovery starts after the membership
        # timeout, not instantaneously.
        yield self.detection_delay_s
        recovered = yield from self.backend.recover(node)
        self.stats.recovered_objects += recovered
        repaired = yield from self.backend.repair()
        self.stats.repaired_keys += repaired
        if span is not None:
            span.finish(recovered=recovered, repaired=repaired)

    def _restart(self, node: str) -> Generator:
        tracer = self.kernel.tracer
        span = tracer.start("fault.restart", node=node) if tracer is not None else None
        purged = self.backend.restart(node)
        self.stats.restarts += 1
        self.stats.purged_backups += purged
        # The node's storage is available again: restore redundancy.
        repaired = yield from self.backend.repair()
        self.stats.repaired_keys += repaired
        if span is not None:
            span.finish(purged=purged, repaired=repaired)

    # -- episodes ----------------------------------------------------------

    def _episode(self, event: FaultEvent) -> Generator:
        kind = event.kind
        state = self.state
        tracer = self.kernel.tracer
        span = (
            tracer.start(f"fault.{kind}", duration=event.duration, scale=event.scale)
            if tracer is not None
            else None
        )
        if kind == "rsds_outage":
            self.stats.outages += 1
            state.enter_outage()
        elif kind == "rsds_brownout":
            self.stats.brownouts += 1
            state.enter_brownout(event.scale)
        elif kind == "slow_network":
            self.stats.slow_network_episodes += 1
            state.enter_slow_network(event.scale)
        else:  # bypass_cache (validated upstream)
            self.stats.bypass_episodes += 1
            state.enter_bypass()
        try:
            yield event.duration
        finally:
            if kind == "rsds_outage":
                state.exit_outage()
            elif kind == "rsds_brownout":
                state.exit_brownout(event.scale)
            elif kind == "slow_network":
                state.exit_slow_network(event.scale)
            else:
                state.exit_bypass()
            if span is not None:
                span.finish()
