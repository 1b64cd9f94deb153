"""Calibrated latency models.

A :class:`LatencyModel` turns an operation on ``nbytes`` of payload into
a duration: ``base + nbytes / bandwidth``, scaled by a bounded lognormal
jitter factor ``exp(σ·z)``: one standard normal ``z`` per jittered draw,
whatever σ is, which is why every latency stream can be served as a
cursor over pre-drawn standard normals (:mod:`repro.sim.rng`).  The
constants used across the repository are calibrated to the numbers the
OFC paper reports (§6.4, §7.2.1): e.g. the cgroup resize of ~24 ms,
RAMCloud scaling in the hundreds of microseconds, and object migration
of 0.18 ms for 8 MB up to 13.5 ms for 1 GB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

KB = 1024
MB = 1024 * 1024
GB = 1024 * 1024 * 1024

#: Jitter-factor clip bounds (see :class:`LatencyModel.jitter`).
_JITTER_FLOOR = 1 / 3
_JITTER_CEIL = 3.0


@dataclass(frozen=True)
class LatencyModel:
    """``base_s + nbytes / bandwidth_bps`` with multiplicative jitter.

    Parameters
    ----------
    base_s:
        Fixed per-operation overhead in seconds.
    bandwidth_bps:
        Payload transfer rate in bytes/second (``None`` = infinite).
    jitter:
        Standard deviation of the lognormal jitter factor (0 disables
        jitter).  The factor is clipped to [1/3, 3] so a single unlucky
        draw cannot distort an experiment.
    """

    base_s: float
    bandwidth_bps: Optional[float] = None
    jitter: float = 0.0

    def mean(self, nbytes: int = 0) -> float:
        """Expected duration without jitter."""
        duration = self.base_s
        if self.bandwidth_bps:
            duration += nbytes / self.bandwidth_bps
        return duration

    def sample(self, rng: Optional[np.random.Generator], nbytes: int = 0) -> float:
        """Draw one duration for an operation on ``nbytes``.

        ``rng`` is a ``numpy.random.Generator`` or a
        :class:`~repro.sim.rng.BatchedStream`; either serves the one
        standard normal a jittered sample consumes.  The jitter scales
        :meth:`mean`, computed inline here (every modelled latency on
        the invocation path comes through this method).
        """
        duration = self.base_s
        if self.bandwidth_bps:
            duration += nbytes / self.bandwidth_bps
        if self.jitter > 0.0 and rng is not None:
            # Generator.lognormal(0, σ) is exp(0 + σ·z) on one standard
            # normal z, with the C library's exp — which math.exp is —
            # so this is its value bit for bit (tests/sim/
            # test_latency_rng.py).  min/max instead of np.clip:
            # identical on scalars (clip is max-then-min) without the
            # ufunc machinery per draw.
            factor = math.exp(self.jitter * rng.standard_normal())
            if factor < _JITTER_FLOOR:
                factor = _JITTER_FLOOR
            elif factor > _JITTER_CEIL:
                factor = _JITTER_CEIL
            duration *= factor
        return duration

    def scaled(self, factor: float) -> "LatencyModel":
        """A model with both base and per-byte cost scaled by ``factor``."""
        bandwidth = (
            None if self.bandwidth_bps is None else self.bandwidth_bps / factor
        )
        return LatencyModel(self.base_s * factor, bandwidth, self.jitter)


# ---------------------------------------------------------------------------
# Platform constants calibrated to the paper.
# ---------------------------------------------------------------------------

#: End-to-end time to push an empty invocation through the platform (§6.4).
PLATFORM_OVERHEAD = LatencyModel(base_s=8e-3, jitter=0.05)

#: Predictor + Sizer overhead on the critical path (§7.2.1: "about 6 ms").
OFC_CONTROL_OVERHEAD = LatencyModel(base_s=6e-3, jitter=0.05)

#: cgroup memory-limit syscall (§6.4: ~0.8 ms syscall).
CGROUP_SYSCALL = LatencyModel(base_s=0.8e-3, jitter=0.05)

#: Full ``docker update`` path including the cgroup syscall (~24 ms).
DOCKER_UPDATE = LatencyModel(base_s=23.8e-3, jitter=0.05)

#: Cold start of a container sandbox (hundreds of ms under load, §2.2.1).
COLD_START = LatencyModel(base_s=450e-3, jitter=0.08)

#: Warm start handoff to an idle sandbox.
WARM_START = LatencyModel(base_s=8e-3, jitter=0.05)

#: RAMCloud memory-pool reconfiguration without eviction (§7.2.1: 289 us).
CACHE_SCALE_PLAIN = LatencyModel(base_s=289e-6, jitter=0.05)

#: RAMCloud memory-pool reconfiguration with eviction (§7.2.1: 373 us).
CACHE_SCALE_EVICT = LatencyModel(base_s=373e-6, jitter=0.05)

#: Master hand-off migration: 0.18 ms @ 8 MB ... 13.5 ms @ 1 GB (§7.2.1).
#: Affine fit: ~0.08 ms + ~13.1 us/MB.
MIGRATION = LatencyModel(base_s=0.08e-3, bandwidth_bps=80 * GB, jitter=0.05)

#: Synchronous persistence of a zero-payload shadow object (~11 ms, §7.2.1).
SHADOW_PERSIST = LatencyModel(base_s=11e-3, jitter=0.05)
