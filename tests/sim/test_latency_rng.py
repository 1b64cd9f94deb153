"""Unit tests for latency models and RNG streams."""

import dataclasses
import importlib
import math
import pkgutil

import numpy as np
import pytest

import repro
from repro.sim import LatencyModel, RngRegistry
from repro.sim.latency import GB, MB, MIGRATION


def declared_sigmas():
    """Every jitter σ a module-level LatencyModel in ``repro`` declares,
    directly or as a field of a module-level dataclass (a profile)."""
    sigmas = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            candidates = [value]
            if dataclasses.is_dataclass(value) and not isinstance(value, type):
                candidates += [getattr(value, f.name) for f in dataclasses.fields(value)]
            sigmas.update(
                c.jitter for c in candidates if isinstance(c, LatencyModel) and c.jitter
            )
    return sorted(sigmas)


def test_declared_sigmas_cover_the_profiles():
    from repro.storage.latency_profiles import REDIS_PROFILE, SWIFT_PROFILE

    sigmas = declared_sigmas()
    assert MIGRATION.jitter in sigmas
    assert SWIFT_PROFILE.read.jitter in sigmas and REDIS_PROFILE.read.jitter in sigmas


@pytest.mark.parametrize("sigma", declared_sigmas())
def test_exp_of_scaled_standard_normal_is_numpy_lognormal(sigma):
    # LatencyModel.sample computes Generator.lognormal(0, σ) as
    # math.exp(σ·z) from one standard normal z: bit for bit.
    n = 200_000
    normals = np.random.default_rng(17).standard_normal(n).tolist()
    lognormals = np.random.default_rng(17).lognormal(0.0, sigma, n).tolist()
    assert [math.exp(sigma * z) for z in normals] == lognormals


def test_mean_without_bandwidth():
    model = LatencyModel(base_s=0.01)
    assert model.mean(10**9) == 0.01


def test_mean_with_bandwidth():
    model = LatencyModel(base_s=0.0, bandwidth_bps=100.0)
    assert model.mean(50) == pytest.approx(0.5)


def test_sample_without_jitter_is_deterministic():
    model = LatencyModel(base_s=0.01, bandwidth_bps=1e6)
    rng = np.random.default_rng(0)
    assert model.sample(rng, 1000) == model.mean(1000)


def test_sample_with_jitter_varies_but_is_bounded():
    model = LatencyModel(base_s=0.01, jitter=0.5)
    rng = np.random.default_rng(0)
    draws = [model.sample(rng) for _ in range(200)]
    assert len(set(draws)) > 100
    assert all(0.01 / 3.001 <= d <= 0.01 * 3.001 for d in draws)


def test_sample_with_none_rng_is_mean():
    model = LatencyModel(base_s=0.02, jitter=0.5)
    assert model.sample(None) == 0.02


def test_scaled_model():
    model = LatencyModel(base_s=0.01, bandwidth_bps=1e6)
    double = model.scaled(2.0)
    assert double.mean(1_000_000) == pytest.approx(2 * model.mean(1_000_000))


def test_migration_calibration_matches_paper():
    # Paper (7.2.1): 0.18 ms @ 8 MB, 1.2 ms @ 64 MB, 13.5 ms @ 1 GB.
    assert MIGRATION.mean(8 * MB) == pytest.approx(0.18e-3, rel=0.35)
    assert MIGRATION.mean(64 * MB) == pytest.approx(1.2e-3, rel=0.35)
    assert MIGRATION.mean(1 * GB) == pytest.approx(13.5e-3, rel=0.35)


def test_rng_streams_are_reproducible():
    a = RngRegistry(seed=7).stream("swift")
    b = RngRegistry(seed=7).stream("swift")
    assert a.random() == b.random()


def test_rng_streams_differ_by_name():
    reg = RngRegistry(seed=7)
    assert reg.stream("a").random() != reg.stream("b").random()


def test_rng_streams_differ_by_seed():
    a = RngRegistry(seed=1).stream("x")
    b = RngRegistry(seed=2).stream("x")
    assert a.random() != b.random()


def test_rng_stream_is_cached():
    reg = RngRegistry(seed=1)
    assert reg.stream("x") is reg.stream("x")


def test_rng_fork_is_independent():
    reg = RngRegistry(seed=3)
    fork = reg.fork(1)
    assert reg.stream("x").random() != fork.stream("x").random()
