"""Tests for FaaSLoad arrival processes."""

from itertools import islice
from math import inf

import numpy as np
import pytest

from repro.faas import FaaSPlatform, PlatformConfig
from repro.sim import Kernel
from repro.sim.latency import KB
from repro.storage import ObjectStore, SWIFT_PROFILE
from repro.workloads import FaaSLoad, TenantSpec
from repro.workloads.faasload import TenantRuntime


def make_injector():
    kernel = Kernel()
    store = ObjectStore(kernel, profile=SWIFT_PROFILE)
    store.rng = None
    store.create_bucket("inputs")
    store.create_bucket("outputs")
    platform = FaaSPlatform(kernel, store, PlatformConfig(node_memory_mb=8192))
    return FaaSLoad(kernel, platform, store)


def sample_intervals(spec, n=3000):
    runtime = TenantRuntime(spec=spec, rng=np.random.default_rng(1))
    instants = list(islice(runtime.arrivals(deadline=inf, start=0.0), n))
    return np.diff([0.0] + instants)


def test_periodic_intervals_are_constant():
    spec = TenantSpec(tenant_id="t", workload="wand_sepia",
                      arrival="periodic", mean_interval_s=30.0)
    intervals = sample_intervals(spec, n=50)
    assert np.all(intervals == 30.0)


def test_exponential_intervals_match_mean():
    spec = TenantSpec(tenant_id="t", workload="wand_sepia",
                      arrival="exponential", mean_interval_s=60.0)
    intervals = sample_intervals(spec)
    assert np.mean(intervals) == pytest.approx(60.0, rel=0.1)
    # Exponential: high coefficient of variation (~1).
    assert np.std(intervals) / np.mean(intervals) > 0.8


def test_bursty_intervals_are_bimodal_with_matching_mean():
    spec = TenantSpec(tenant_id="t", workload="wand_sepia",
                      arrival="bursty", mean_interval_s=60.0,
                      burst_size=5.0, burst_gap_s=0.5)
    intervals = sample_intervals(spec, n=20000)
    short = intervals[intervals <= 0.5]
    long = intervals[intervals > 0.5]
    # Most gaps are intra-burst, a minority are long idle periods.
    assert len(short) > 2 * len(long)
    assert np.mean(long) > 50.0
    # Long-run rate matches the requested mean within tolerance.
    assert np.mean(intervals) == pytest.approx(60.0, rel=0.2)


def test_bursty_injection_end_to_end():
    injector = make_injector()
    injector.prepare(
        [
            TenantSpec(
                tenant_id="t-burst",
                workload="wand_sepia",
                arrival="bursty",
                mean_interval_s=20.0,
                burst_size=4.0,
                burst_gap_s=0.2,
                input_sizes=[16 * KB],
                n_inputs=2,
            )
        ]
    )
    stats = injector.run(duration_s=400.0)
    (runtime,) = injector.tenants
    agg = stats.per_tenant["t-burst"]
    assert runtime.invocations_fired > 3
    assert agg.completed == runtime.invocations_fired and agg.failed == 0
    # Bursts reuse warm sandboxes: warm starts dominate cold starts.
    warm = agg.completed - agg.cold_starts
    assert warm >= agg.completed / 2
