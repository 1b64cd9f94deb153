"""Requests share their argument dicts, and nothing writes them.

A discrete ``sample_args`` returns one of its model's ``arg_choices``
(built once), and a function without arguments returns the shared
:data:`repro.EMPTY`; the draw from the generator is the one it always
was.  So no layer may write ``request.args``: after a FaaSLoad run on
OWK-Swift and a streaming-tenant run on OFC every shared dict holds
what it held before, and most requests carried one of them.
"""

import numpy as np
import pytest

from repro import EMPTY
from repro.bench.envs import build_ofc_env, build_owk_swift_env
from repro.workloads.faasload import FaaSLoad, TenantSpec
from repro.workloads.functions import ALL_FUNCTIONS, interned
from repro.workloads.tenants import TenantLoadEngine, TenantWorkloadConfig


def shared_dicts():
    """Every interned argument dict, by identity."""
    shared = {id(EMPTY): EMPTY}
    for model in ALL_FUNCTIONS.values():
        for args in model.arg_choices:
            shared[id(args)] = args
    return shared


def faasload_run(listener):
    env = build_owk_swift_env(seed=0)
    env.platform.completion_listeners.append(listener)
    load = FaaSLoad(env.kernel, env.platform, env.store, truth_seed=0)
    load.prepare(
        [
            TenantSpec(function, function, mean_interval_s=2.0, n_inputs=2)
            for function in ("wand_blur", "wand_sepia", "wand_rotate", "wand_edge")
        ]
    )
    load.run(120.0)


def tenant_run(listener):
    ofc = build_ofc_env(nodes=3, node_mb=2048.0, seed=5, keepalive_s=4.0)
    ofc.platform.completion_listeners.append(listener)
    workload = TenantWorkloadConfig(n_tenants=40, mean_interval_s=2.0, seed=5)
    TenantLoadEngine(ofc.kernel, ofc.platform, ofc.store, workload).run(40.0)


@pytest.mark.parametrize("run", [faasload_run, tenant_run], ids=["faasload", "tenants"])
def test_no_run_writes_a_shared_argument_dict(run):
    shared = shared_dicts()
    before = {key: dict(args) for key, args in shared.items()}
    carried = []
    run(lambda record: carried.append(id(record.request.args) in shared))
    assert {key: dict(args) for key, args in shared.items()} == before
    assert len(carried) > 100
    assert sum(carried) > len(carried) / 2, (sum(carried), len(carried))


def test_a_discrete_draw_is_the_interned_dict():
    for model in ALL_FUNCTIONS.values():
        choices = model.arg_choices
        if not choices:
            continue
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(20):
            args = model.sample_args(rng)
            assert any(args is choice for choice in choices), model.name
            assert args == choices[twin.integers(0, len(choices))]


def test_interned_dicts_are_one_per_value():
    choices = interned("sigma", (0.5, 1.0))
    assert choices == ({"sigma": 0.5}, {"sigma": 1.0})
    with pytest.raises(TypeError):
        EMPTY["x"] = 1  # type: ignore[index]
