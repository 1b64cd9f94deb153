"""Latency profiles for the storage backends the paper compares.

Calibration targets, taken from the paper's own measurements:

* **Swift** (the RSDS used by OFC's prototype): for ``wand_edge`` with a
  16 kB input, OFC saves ~42 ms on Extract and ~108 ms on Load versus
  OWK-Swift (§7.2.1), which pins the per-GET overhead near 40 ms and the
  per-PUT overhead near 100 ms for small objects.
* **S3** (motivation experiment, Figure 3): comparable to Swift; E&L is
  up to 97 % of a small image-processing invocation and ~52 % of a 30 MB
  MapReduce run, which additionally pins the large-transfer bandwidth.
* **Redis** (the IMOC baseline): sub-millisecond operations over the
  data-center network; E&L "becomes negligible" (§2.2.3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.latency import GB, LatencyModel, MB


@dataclass(frozen=True)
class LatencyProfile:
    """Per-operation latency models of one storage backend.

    ``shadow_write`` is the cost of a zero-payload placeholder PUT: it
    skips the data path entirely, so it is much cheaper than a normal
    write (the paper measures ~11 ms on Swift, §7.2.1).
    """

    name: str
    read: LatencyModel
    write: LatencyModel
    delete: LatencyModel
    stat: LatencyModel
    shadow_write: LatencyModel


SWIFT_PROFILE = LatencyProfile(
    name="swift",
    read=LatencyModel(base_s=40e-3, bandwidth_bps=220 * MB, jitter=0.06),
    write=LatencyModel(base_s=108e-3, bandwidth_bps=180 * MB, jitter=0.06),
    delete=LatencyModel(base_s=25e-3, jitter=0.06),
    stat=LatencyModel(base_s=12e-3, jitter=0.06),
    shadow_write=LatencyModel(base_s=11e-3, jitter=0.05),
)

S3_PROFILE = LatencyProfile(
    name="s3",
    read=LatencyModel(base_s=42e-3, bandwidth_bps=180 * MB, jitter=0.08),
    write=LatencyModel(base_s=85e-3, bandwidth_bps=150 * MB, jitter=0.08),
    delete=LatencyModel(base_s=30e-3, jitter=0.08),
    stat=LatencyModel(base_s=15e-3, jitter=0.08),
    shadow_write=LatencyModel(base_s=12e-3, jitter=0.05),
)

REDIS_PROFILE = LatencyProfile(
    name="redis",
    read=LatencyModel(base_s=0.35e-3, bandwidth_bps=1.1 * GB, jitter=0.05),
    write=LatencyModel(base_s=0.45e-3, bandwidth_bps=1.0 * GB, jitter=0.05),
    delete=LatencyModel(base_s=0.3e-3, jitter=0.05),
    stat=LatencyModel(base_s=0.25e-3, jitter=0.05),
    shadow_write=LatencyModel(base_s=0.4e-3, jitter=0.05),
)
