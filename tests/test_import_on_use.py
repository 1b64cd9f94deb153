"""A process loads only the code it runs, and a measured phase imports
nothing.

Each case builds a deployment in a fresh interpreter (this one has
imported everything earlier tests touched), imports what a
``perf/cells.py`` child imports, drives a short load and reports the
``repro`` modules it holds at the end and the modules the load itself
imported.  A stock OpenWhisk deployment must load no OFC core, no cache
architecture and no learner; an OFC deployment loads its own
architecture and the one learner it trains, not the other two
architectures, the learners only Table 1 compares, or the metrics; a
FaaSLoad without a pipeline tenant never loads the pipeline apps.  An
import inside the measured window would be charged to the cell's wall
time, so each case also requires the window to import nothing.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

CHILD = r"""
import json
import sys

from repro.bench import model_cache
from repro.bench.envs import build_ofc_env, build_owk_swift_env, pretrain_function
from repro.checks import check_history, HistoryRecorder
from repro.faults import chaos_schedule, chaos_targets, FaultInjector
from repro.workloads.faasload import FaaSLoad, TenantProfile, TenantSpec
from repro.workloads.tenants import TenantLoadEngine, TenantWorkloadConfig

KB = 1024


def faasload(system, workloads):
    if system == "ofc":
        ofc = build_ofc_env(nodes=2, node_mb=16384.0, seed=0)
        kernel, platform, store = ofc.kernel, ofc.platform, ofc.store
    else:
        ofc = None
        env = build_owk_swift_env(nodes=2, node_mb=16384.0, seed=0)
        kernel, platform, store = env.kernel, env.platform, env.store
    specs = [
        TenantSpec(
            tenant_id=f"tenant-{workload}",
            workload=workload,
            profile=TenantProfile.NORMAL,
            mean_interval_s=10.0,
            input_sizes=[64 * KB, 256 * KB],
            n_inputs=2,
        )
        for workload in workloads
    ]
    load = FaaSLoad(kernel, platform, store, truth_seed=0)
    load.prepare(specs)
    if ofc is not None:
        for runtime in load.tenants:
            if runtime.model is not None:
                pretrain_function(
                    ofc, runtime.model, runtime.descriptors,
                    tenant=runtime.spec.tenant_id, n_samples=120,
                )

    def measure():
        load.run(120.0)
        kernel.run(until=kernel.now + 30.0)

    return platform, measure


def tenants():
    ofc = build_ofc_env(nodes=4, node_mb=8192.0, seed=0, keepalive_s=8.0)
    recorder = HistoryRecorder(ofc)
    engine = TenantLoadEngine(
        ofc.kernel, ofc.platform, ofc.store,
        TenantWorkloadConfig(n_tenants=40, mean_interval_s=4.0, seed=0),
    )
    engine.prepare()
    engine.run(4.0)
    kernel = ofc.kernel
    schedule = chaos_schedule(
        0, 30.0, ofc.backend.node_ids, intensity="high",
        targets=chaos_targets(ofc.backend), start_at=kernel.now,
    )
    assert schedule.events, "the fault schedule is empty"
    injector = FaultInjector(ofc, schedule)

    def measure():
        injector.start()
        engine.run(30.0)
        kernel.run(until=max(kernel.now, schedule.duration) + 45.0)
        kernel.run_until(kernel.process(ofc.backend.repair()))
        check_history(recorder.ops, ofc)

    return ofc.platform, measure


CASES = {
    "stock": lambda: faasload("swift", ["wand_blur", "wand_sepia"]),
    "ofc": lambda: faasload("ofc", ["wand_blur", "wand_sepia"]),
    "pipeline": lambda: faasload("ofc", ["image_processing", "wand_blur"]),
    "tenants": tenants,
}

model_cache.clear()
platform, measure = CASES[sys.argv[1]]()
records = []
platform.completion_listeners.append(records.append)
before = set(sys.modules)
measure()
print(json.dumps({
    "loaded": sorted(m for m in sys.modules if m.split(".")[0] == "repro"),
    "imported_while_measuring": sorted(set(sys.modules) - before),
    "records": len(records),
}))
"""


def _child(script: str, *args: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


@functools.lru_cache(maxsize=None)
def _case(name: str) -> dict:
    result = json.loads(_child(CHILD, name))
    assert result["records"] > 0, f"{name}: the load delivered nothing"
    return result


def _under(loaded, package: str):
    return sorted(m for m in loaded if m == package or m.startswith(package + "."))


def test_stock_deployment_loads_no_ofc_cache_or_learner():
    loaded = _case("stock")["loaded"]
    for package in ("repro.core", "repro.cache", "repro.ml"):
        assert _under(loaded, package) == [], package
    # repro.checks names the cache's NoSuchKey; nothing else of it loads.
    assert set(_under(loaded, "repro.kvcache")) <= {
        "repro.kvcache", "repro.kvcache.errors",
    }
    assert "repro.workloads.pipelines" not in loaded


#: What an OFC deployment never runs: the other two cache architectures,
#: the learners only Table 1 and Figure 6 compare, the evaluation metrics.
NOT_RUN_BY_OFC = (
    "repro.cache.faast",
    "repro.cache.infinicache",
    "repro.ml.forest",
    "repro.ml.hoeffding",
    "repro.ml.metrics",
)


def test_ofc_deployment_loads_its_architecture_and_learner_only():
    loaded = _case("ofc")["loaded"]
    assert {"repro.core.ofc", "repro.cache.ofc_backend", "repro.ml.tree"} <= set(
        loaded
    )
    assert [m for m in NOT_RUN_BY_OFC if m in loaded] == []
    assert "repro.workloads.pipelines" not in loaded


def test_faasload_loads_pipelines_only_for_a_pipeline_tenant():
    assert "repro.workloads.pipelines" in _case("pipeline")["loaded"]
    assert [m for m in NOT_RUN_BY_OFC if m in _case("pipeline")["loaded"]] == []


def test_fault_injection_and_history_load_no_other_architecture():
    loaded = _case("tenants")["loaded"]
    assert {"repro.checks.invariants", "repro.faults.injector"} <= set(loaded)
    assert [m for m in NOT_RUN_BY_OFC if m in loaded] == []


@pytest.mark.parametrize("case", ["stock", "ofc", "pipeline", "tenants"])
def test_nothing_is_imported_while_measuring(case):
    assert _case(case)["imported_while_measuring"] == []


#: Importing each package alone loads none of its own submodules (the
#: order keeps every package unimported until its turn: ``repro.cache``
#: reads ``repro.core.config``).
PACKAGES = ("repro.kvcache", "repro.ml", "repro.workloads", "repro.core", "repro.cache")

FIRST_IMPORT = r"""
import importlib
import json
import sys

eager = {}
for package in sys.argv[1:]:
    importlib.import_module(package)
    eager[package] = sorted(m for m in sys.modules if m.startswith(package + "."))
print(json.dumps(eager))
"""


def test_importing_a_package_loads_none_of_its_modules():
    eager = json.loads(_child(FIRST_IMPORT, *PACKAGES))
    assert eager == {package: [] for package in PACKAGES}
