"""Fault injection for the simulated OFC deployment.

The subsystem has three parts:

* :class:`~repro.sim.faults.FaultState` — the shared knobs the
  instrumented components (RSDS, cache cluster, rclib) consult on
  their hot paths (zero cost while ``None``);
* :class:`~repro.faults.schedule.FaultSchedule` — a validated,
  time-sorted list of fault events, scripted or loaded from JSON;
* :class:`~repro.faults.injector.FaultInjector` — the driver process
  that applies a schedule to a running :class:`~repro.core.ofc.
  OFCPlatform`: node crashes/restarts (with detection, recovery and
  re-replication), RSDS outages and brown-outs, slow-network windows
  and bypass-cache degraded mode;
* :mod:`~repro.faults.chaos` — the seeded randomized fuzzer: composes
  the episode types into valid schedules with graded intensity and
  backend-aware crash targeting, plus a ddmin-style shrinker that
  minimizes failing schedules to small reproducers.
"""

from repro.faults.chaos import (
    INTENSITIES,
    ChaosIntensity,
    chaos_schedule,
    chaos_targets,
    shrink_schedule,
)
from repro.faults.injector import FaultInjector, FaultInjectorStats
from repro.faults.schedule import (
    EPISODE_KINDS,
    FaultEvent,
    FaultSchedule,
    NODE_KINDS,
    ScheduleError,
)

__all__ = [
    "EPISODE_KINDS",
    "ChaosIntensity",
    "FaultEvent",
    "FaultInjector",
    "FaultInjectorStats",
    "FaultSchedule",
    "INTENSITIES",
    "NODE_KINDS",
    "ScheduleError",
    "chaos_schedule",
    "chaos_targets",
    "shrink_schedule",
]
