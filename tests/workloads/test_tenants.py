"""Tests for the streaming multi-tenant workload layer.

Covers the CI-gated generator properties: Zipf sampling is
deterministic under a fixed seed, the diurnal envelope's analytic
integral matches a numeric one, and a 100k-invocation merged stream
never holds more than O(tenants) pending events.
"""

import numpy as np
import pytest

from repro.workloads.tenants import (
    DiurnalEnvelope,
    MergedArrivalStream,
    TenantWorkloadConfig,
    ZipfSampler,
    synthesize_tenants,
)


# -- Zipf sampler ---------------------------------------------------------


def test_zipf_pmf_sums_to_one_and_decreases():
    sampler = ZipfSampler(19, 1.1)
    pmf = sampler.pmf()
    assert pmf.shape == (19,)
    assert pmf.sum() == pytest.approx(1.0)
    assert all(pmf[i] > pmf[i + 1] for i in range(18))


def test_zipf_sampler_deterministic_under_fixed_seed():
    sampler = ZipfSampler(19, 1.1)
    a = sampler.sample(np.random.default_rng(42), size=5000)
    b = sampler.sample(np.random.default_rng(42), size=5000)
    assert np.array_equal(a, b)
    c = sampler.sample(np.random.default_rng(43), size=5000)
    assert not np.array_equal(a, c)


def test_zipf_skew_concentrates_mass_on_head():
    rng = np.random.default_rng(0)
    flat = ZipfSampler(19, 0.5).sample(rng, size=20_000)
    rng = np.random.default_rng(0)
    steep = ZipfSampler(19, 1.8).sample(rng, size=20_000)
    assert (steep == 0).mean() > (flat == 0).mean()
    # Ranks stay in bounds.
    assert steep.min() >= 0 and steep.max() < 19


def test_zipf_rejects_empty_universe():
    with pytest.raises(ValueError):
        ZipfSampler(0, 1.1)


# -- diurnal envelope -----------------------------------------------------


def test_envelope_rate_bounds_and_peak():
    env = DiurnalEnvelope(period_s=86_400.0, amplitude=0.6)
    times = np.linspace(0.0, 86_400.0, 1001)
    rates = [env.rate(t) for t in times]
    assert min(rates) >= 0.4 - 1e-9
    assert max(rates) <= env.peak + 1e-9
    assert env.peak == pytest.approx(1.6)


def test_envelope_full_period_integrates_to_period():
    # The envelope redistributes arrivals within a period, it adds none:
    # the rate multiplier averages 1 over one period.
    env = DiurnalEnvelope(period_s=3600.0, amplitude=0.5, phase_s=123.0)
    times = np.linspace(0.0, 3600.0, 1000, endpoint=False)
    assert np.mean([env.rate(t) for t in times]) == pytest.approx(1.0, abs=1e-12)


def test_envelope_validates_amplitude():
    with pytest.raises(ValueError):
        DiurnalEnvelope(amplitude=1.0)
    with pytest.raises(ValueError):
        DiurnalEnvelope(period_s=0.0)


# -- tenant synthesis and arrivals ----------------------------------------


def _small_config(**overrides):
    defaults = dict(n_tenants=50, mean_interval_s=10.0, seed=7)
    defaults.update(overrides)
    return TenantWorkloadConfig(**defaults)


def test_synthesize_tenants_is_deterministic():
    config = _small_config()
    a = synthesize_tenants(config)
    b = synthesize_tenants(config)
    assert [t.model for t in a] == [t.model for t in b]
    assert [t.rate_hz for t in a] == [t.rate_hz for t in b]
    assert [t.tenant_id for t in a] == [t.tenant_id for t in b]
    # Population-mean inter-arrival matches the config exactly.
    mean_rate = np.mean([t.rate_hz for t in a])
    assert 1.0 / mean_rate == pytest.approx(config.mean_interval_s)


def test_arrival_stream_deterministic_and_ordered():
    config = _small_config()
    first = list(synthesize_tenants(config)[0].arrivals(2000.0))
    again = list(synthesize_tenants(config)[0].arrivals(2000.0))
    assert first == again
    assert all(b > a for a, b in zip(first, first[1:]))
    assert all(0.0 <= t < 2000.0 for t in first)


def test_arrival_stream_respects_start():
    config = _small_config()
    tenant = synthesize_tenants(config)[0]
    times = list(tenant.arrivals(900.0, start=300.0))
    assert times, "a 10s-mean tenant should arrive within 600s"
    assert all(300.0 <= t < 900.0 for t in times)


def test_merged_stream_is_globally_ordered():
    config = _small_config()
    tenants = synthesize_tenants(config)
    merged = list(MergedArrivalStream(tenants, 300.0))
    times = [when for when, _ in merged]
    assert times == sorted(times)
    # Every yielded tenant is one of ours.
    ids = {t.tenant_id for t in tenants}
    assert all(tenant.tenant_id in ids for _, tenant in merged)


def test_100k_invocation_stream_stays_memory_flat():
    """The merged stream must hold O(tenants) pending events, never

    O(invocations): 200 tenants streamed for 100k arrivals keep the
    pending count bounded by the tenant count throughout.
    """
    config = _small_config(n_tenants=200, mean_interval_s=1.0)
    tenants = synthesize_tenants(config)
    stream = MergedArrivalStream(tenants, deadline=1e9)
    assert stream.pending_count <= config.n_tenants

    produced = 0
    max_pending = 0
    last = -1.0
    for when, _tenant in stream:
        assert when >= last
        last = when
        max_pending = max(max_pending, stream.pending_count)
        produced += 1
        if produced >= 100_000:
            break
    assert produced == 100_000
    assert max_pending <= config.n_tenants
