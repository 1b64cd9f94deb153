"""Discrete-event simulation kernel.

This package provides the simulated substrate on which every other
subsystem of the reproduction runs: a deterministic event loop with a
virtual clock (:class:`~repro.sim.kernel.Kernel`), generator-based
processes (:class:`~repro.sim.kernel.Process`), one unit-grant FIFO
resource (:class:`~repro.sim.resources.Resource`), calibrated latency
models (:mod:`repro.sim.latency`) and named deterministic random streams
(:class:`~repro.sim.rng.RngRegistry`).

The kernel is SimPy-flavoured (processes are generators that ``yield``
events) but is written from scratch, so the repository has no
dependency beyond numpy, and it offers only what the model uses: bare
sleeps, one-shot events, ``all_of``, ``call_later``.  A process, once
blocked, runs again only when what it waits for occurs.
"""

from repro.sim.kernel import (
    AllOf,
    delay_until,
    Event,
    Kernel,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.latency import LatencyModel
from repro.sim.resources import Resource
from repro.sim.rng import RngRegistry

__all__ = [
    "AllOf",
    "delay_until",
    "Event",
    "Kernel",
    "LatencyModel",
    "Process",
    "Resource",
    "RngRegistry",
    "SimulationError",
    "Timeout",
]
