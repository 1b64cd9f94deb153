"""Tests for strict vs relaxed consistency (§6.2)."""

import pytest

from repro.core import OFCConfig, OFCPlatform
from repro.faas.platform import PlatformConfig
from tests.core.conftest import deploy, invoke, seed_images


@pytest.fixture()
def relaxed():
    """An OFC deployment with the §6.2 relaxation enabled."""
    system = OFCPlatform(
        config=OFCConfig(strict_consistency=False),
        platform_config=PlatformConfig(node_memory_mb=4096),
        seed=5,
    )
    system.store.create_bucket("inputs")
    system.store.create_bucket("outputs")
    system.start()
    return system


def test_relaxed_mode_writes_no_shadow(relaxed):
    deploy(relaxed)
    refs = seed_images(relaxed, n=1)
    record = invoke(relaxed, ref=refs[0])
    assert record.status == "ok"
    assert relaxed.rclib_stats.shadow_writes == 0
    # The output only exists in the cache, not in the RSDS.
    out_bucket, out_name = record.output_refs[0].split("/", 1)
    assert relaxed.cluster.contains(record.output_refs[0])
    assert not relaxed.store.contains(out_bucket, out_name)


def test_relaxed_mode_load_phase_is_faster_than_strict(relaxed, ofc):
    for system in (relaxed, ofc):
        deploy(system)
    refs_relaxed = seed_images(relaxed, n=1)
    refs_strict = seed_images(ofc, n=1)
    relaxed_record = invoke(relaxed, ref=refs_relaxed[0])
    strict_record = invoke(ofc, ref=refs_strict[0])
    # Strict pays the ~11 ms synchronous shadow write; relaxed does not.
    assert relaxed_record.phases.load < strict_record.phases.load / 3


def test_relaxed_mode_no_webhooks_registered(relaxed):
    assert relaxed.store._read_hooks == []
    assert relaxed.store._write_hooks == []


def test_relaxed_mode_persists_lazily_on_eviction(relaxed):
    """Writes propagate to the RSDS only on cache eviction decisions."""
    deploy(relaxed)
    refs = seed_images(relaxed, n=1)
    record = invoke(relaxed, ref=refs[0])
    key = record.output_refs[0]
    out_bucket, out_name = key.split("/", 1)
    agent = relaxed.agents[relaxed.cluster.location_of(key)]
    # Force a pressure shrink to zero: the dirty output must be written
    # back before being discarded.
    relaxed.kernel.run_until(relaxed.kernel.process(agent._shrink_to(0)))
    relaxed.kernel.run(until=relaxed.kernel.now + 5.0)
    assert relaxed.store.contains(out_bucket, out_name)


def test_relaxed_overwrite_versions_monotonic(relaxed):
    deploy(relaxed)
    refs = seed_images(relaxed, n=1)
    first = invoke(relaxed, ref=refs[0])
    key = first.output_refs[0]
    v1 = relaxed.cluster.peek(key).version if relaxed.cluster.contains(key) else 0
    assert v1 >= 1


def test_strict_mode_output_visible_to_external_reader_immediately(ofc):
    """Strict mode: an external GET after the invocation returns the
    payload (webhook blocks until the persistor lands)."""
    deploy(ofc)
    refs = seed_images(ofc, n=1)
    record = invoke(ofc, ref=refs[0])
    out_bucket, out_name = record.output_refs[0].split("/", 1)

    def external_get():
        obj = yield from ofc.store.get(out_bucket, out_name)
        return obj

    obj = ofc.kernel.run_until(ofc.kernel.process(external_get()))
    assert obj.payload is not None
    assert not obj.meta.is_shadow
