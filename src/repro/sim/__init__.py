"""Discrete-event simulation kernel.

This package provides the simulated substrate on which every other
subsystem of the reproduction runs: a deterministic event loop with a
virtual clock (:class:`~repro.sim.kernel.Kernel`), generator-based
processes (:class:`~repro.sim.kernel.Process`), counting resources
(:class:`~repro.sim.resources.Resource`), calibrated latency models
(:mod:`repro.sim.latency`) and named deterministic random streams
(:class:`~repro.sim.rng.RngRegistry`).

The kernel is intentionally SimPy-flavoured (processes are generators
that ``yield`` events) but is written from scratch so the repository has
no dependency beyond numpy.
"""

from repro.sim.kernel import (
    AllOf,
    AnyOf,
    delay_until,
    Event,
    Interrupt,
    Kernel,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.latency import LatencyModel
from repro.sim.resources import Resource, Store
from repro.sim.rng import RngRegistry

__all__ = [
    "AllOf",
    "AnyOf",
    "delay_until",
    "Event",
    "Interrupt",
    "Kernel",
    "LatencyModel",
    "Process",
    "Resource",
    "RngRegistry",
    "SimulationError",
    "Store",
    "Timeout",
]
