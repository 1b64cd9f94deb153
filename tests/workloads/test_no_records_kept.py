"""No injector keeps invocation records.

The load engine folds each record into per-tenant aggregates as it
lands; after that, nothing on the load path may hold it.  A completion
listener takes a weak reference to every record, and once ``run``
returns none of them may still be alive, on OWK-Swift and on OFC.
"""

from __future__ import annotations

import weakref

import pytest

from repro.bench.envs import build_ofc_env, build_owk_swift_env
from repro.workloads.faasload import FaaSLoad, TenantSpec


def _env(system):
    if system == "ofc":
        ofc = build_ofc_env(seed=0)
        return ofc.kernel, ofc.platform, ofc.store
    env = build_owk_swift_env(seed=0)
    return env.kernel, env.platform, env.store


@pytest.mark.parametrize("system", ["swift", "ofc"])
def test_records_are_freed_as_they_land(system):
    kernel, platform, store = _env(system)
    load = FaaSLoad(kernel, platform, store, truth_seed=0)
    load.prepare(
        [
            TenantSpec(tenant, tenant, mean_interval_s=5.0, n_inputs=2)
            for tenant in ("wand_sepia", "wand_blur")
        ]
    )
    refs = []
    platform.completion_listeners.append(lambda r: refs.append(weakref.ref(r)))
    stats = load.run(120.0)
    assert len(refs) == stats.completed + stats.failed > 40
    alive = sum(ref() is not None for ref in refs)
    assert alive == 0, f"{alive} of {len(refs)} records still alive"
