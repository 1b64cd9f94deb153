"""Calibrated latency models.

A :class:`LatencyModel` turns an operation on ``nbytes`` of payload into
a duration: ``base + nbytes / bandwidth``, scaled by a bounded lognormal
jitter factor ``exp(σ·z)``: one standard normal ``z`` per jittered draw,
whatever σ is, which is why every latency stream can be served as a
cursor over pre-drawn standard normals (:mod:`repro.sim.rng`).  This
module is the one calibration table: every modelled latency in the
repository is a constant defined here (the platform, the cache control
path, the cache ops every architecture shares, and the
:class:`LatencyProfile` of each remote store), calibrated to the numbers
the OFC paper reports (§2.2, §6.4, §7.2.1): e.g. the cgroup resize of
~24 ms, RAMCloud scaling in the hundreds of microseconds, and object
migration of 0.18 ms for 8 MB up to 13.5 ms for 1 GB.
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


# ---------------------------------------------------------------------------
# The calibration table: every modelled latency in the repository.  Each
# constant names the paper section its number comes from, or says it is
# an assumption.  DESIGN.md's "Calibration" table lists the same rows
# (tests/sim/test_latency_rng.py holds the two together).
# ---------------------------------------------------------------------------

# -- platform ---------------------------------------------------------------

#: End-to-end time to push an empty invocation through the platform (§6.4).
PLATFORM_OVERHEAD = LatencyModel(base_s=8e-3, jitter=0.05)

#: Predictor + Sizer overhead on the critical path (§7.2.1: "about 6 ms").
OFC_CONTROL_OVERHEAD = LatencyModel(base_s=6e-3, jitter=0.05)

#: Full ``docker update`` path including the ~0.8 ms cgroup syscall
#: (§6.4: ~24 ms).
DOCKER_UPDATE = LatencyModel(base_s=23.8e-3, jitter=0.05)

#: Cold start of a container sandbox (hundreds of ms under load, §2.2.1).
COLD_START = LatencyModel(base_s=450e-3, jitter=0.08)

#: Warm start handoff to an idle sandbox (assumption).
WARM_START = LatencyModel(base_s=8e-3, jitter=0.05)

# -- cache control (RAMCloud) -----------------------------------------------

#: RAMCloud memory-pool reconfiguration without eviction (§7.2.1: 289 us).
CACHE_SCALE_PLAIN = LatencyModel(base_s=289e-6, jitter=0.05)

#: RAMCloud memory-pool reconfiguration with eviction (§7.2.1: 373 us).
CACHE_SCALE_EVICT = LatencyModel(base_s=373e-6, jitter=0.05)

#: Master hand-off migration: 0.18 ms @ 8 MB ... 13.5 ms @ 1 GB (§7.2.1).
#: Affine fit: ~0.08 ms + ~13.1 us/MB.
MIGRATION = LatencyModel(base_s=0.08e-3, bandwidth_bps=80 * GB, jitter=0.05)

# -- cache ops --------------------------------------------------------------
#
# Every cache architecture (OFC's RAMCloud cluster, Faa$T, InfiniCache)
# draws from these, so the backends compare on one calibration.  Local
# (caller is the master's node) operations are RAM-speed.  Remote
# operations pay the full OFC redirection path (proxy, coordinator
# lookup, remote server); the paper's RemoteHit numbers (§7.2.1: +2.5 ms
# on wand_denoise, +12.76 % worst case single-stage) calibrate the
# remote-read base near 2.3 ms.

#: Read from the caller's own node (assumption: RAM speed).
LOCAL_READ = LatencyModel(base_s=15e-6, bandwidth_bps=8 * GB, jitter=0.05)
#: Write to the caller's own node (assumption: RAM speed).
LOCAL_WRITE = LatencyModel(base_s=30e-6, bandwidth_bps=5 * GB, jitter=0.05)
#: Read redirected to a remote master (§7.2.1 RemoteHit).
REMOTE_READ = LatencyModel(base_s=2.3e-3, bandwidth_bps=1.1 * GB, jitter=0.05)
#: Write redirected to a remote master (§7.2.1 RemoteHit).
REMOTE_WRITE = LatencyModel(base_s=2.5e-3, bandwidth_bps=1.0 * GB, jitter=0.05)
#: Reading a backup copy from local disk when promoting it to master
#: (assumption).
DISK_READ = LatencyModel(base_s=90e-6, bandwidth_bps=500 * MB, jitter=0.05)
#: Writing a replica to a backup's buffered log, async flush to disk
#: (assumption).
BACKUP_WRITE = LatencyModel(base_s=60e-6, bandwidth_bps=1.0 * GB, jitter=0.05)

# -- remote shared data stores (RSDS) ---------------------------------------
#
# Calibration targets, taken from the paper's own measurements:
#
# * **Swift** (the RSDS used by OFC's prototype): for ``wand_edge`` with a
#   16 kB input, OFC saves ~42 ms on Extract and ~108 ms on Load versus
#   OWK-Swift (§7.2.1), which pins the per-GET overhead near 40 ms and
#   the per-PUT overhead near 100 ms for small objects.
# * **S3** (motivation experiment, Figure 3): comparable to Swift; E&L is
#   up to 97 % of a small image-processing invocation and ~52 % of a
#   30 MB MapReduce run, which additionally pins the large-transfer
#   bandwidth.
# * **Redis** (the IMOC baseline): sub-millisecond operations over the
#   data-center network; E&L "becomes negligible" (§2.2.3).


@dataclass(frozen=True)
class LatencyProfile:
    """Per-operation latency models of one storage backend.

    ``shadow_write`` is the cost of a zero-payload placeholder PUT: it
    skips the data path entirely, so it is much cheaper than a normal
    write (the paper measures ~11 ms on Swift, §7.2.1).
    """

    read: LatencyModel
    write: LatencyModel
    delete: LatencyModel
    stat: LatencyModel
    shadow_write: LatencyModel


#: OpenStack Swift, the RSDS of OFC's prototype and of OWK-Swift (§7.2.1;
#: ``delete``/``stat`` are assumptions).
SWIFT_PROFILE = LatencyProfile(
    read=LatencyModel(base_s=40e-3, bandwidth_bps=220 * MB, jitter=0.06),
    write=LatencyModel(base_s=108e-3, bandwidth_bps=180 * MB, jitter=0.06),
    delete=LatencyModel(base_s=25e-3, jitter=0.06),
    stat=LatencyModel(base_s=12e-3, jitter=0.06),
    shadow_write=LatencyModel(base_s=11e-3, jitter=0.05),
)

#: AWS S3, Figure 3's RSDS (§2.2; ``delete``/``stat``/``shadow_write``
#: are assumptions).
S3_PROFILE = LatencyProfile(
    read=LatencyModel(base_s=42e-3, bandwidth_bps=180 * MB, jitter=0.08),
    write=LatencyModel(base_s=85e-3, bandwidth_bps=150 * MB, jitter=0.08),
    delete=LatencyModel(base_s=30e-3, jitter=0.08),
    stat=LatencyModel(base_s=15e-3, jitter=0.08),
    shadow_write=LatencyModel(base_s=12e-3, jitter=0.05),
)

#: An ElastiCache-Redis style IMOC, Figure 3's and OWK-Redis's store
#: (§2.2.3; the individual bases are assumptions).
REDIS_PROFILE = LatencyProfile(
    read=LatencyModel(base_s=0.35e-3, bandwidth_bps=1.1 * GB, jitter=0.05),
    write=LatencyModel(base_s=0.45e-3, bandwidth_bps=1.0 * GB, jitter=0.05),
    delete=LatencyModel(base_s=0.3e-3, jitter=0.05),
    stat=LatencyModel(base_s=0.25e-3, jitter=0.05),
    shadow_write=LatencyModel(base_s=0.4e-3, jitter=0.05),
)
