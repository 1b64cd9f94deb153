"""A seeded run leaves nothing for the cyclic garbage collector.

Every object a run allocates is freed by reference counting the moment
its last reference goes: a process waits as itself rather than through a
bound method of itself, and a failed attempt keeps its message, not the
exception whose traceback would hold the ``invoke`` frame (and through
it the record, request, monitor, data client and sandbox).  The check
runs a short OFC cell with ``gc.DEBUG_SAVEALL``, under which everything
the collector finds unreachable is kept in ``gc.garbage`` instead of
freed, through a forced ``ResourceExhausted`` retry and a failed
invocation.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from repro.bench.envs import build_ofc_env
from repro.faas.errors import ResourceExhausted
from repro.faas.records import InvocationRequest
from repro.sim.latency import KB
from repro.workloads.functions import get_function_model
from repro.workloads.media import MediaCorpus

ROOT = Path(__file__).resolve().parents[1]


def _refuse_the_first_sandbox(ofc) -> list:
    """Make the first cold start anywhere fail for lack of room, once."""
    refused = []
    for invoker in ofc.platform.invokers:
        def create_sandbox(
            spec, memory_mb, invoker=invoker, create=invoker.create_sandbox
        ):
            if not refused:
                refused.append(invoker.node_id)
                yield 0.0
                raise ResourceExhausted(f"{invoker.node_id}: no room (forced)")
            return (yield from create(spec, memory_mb))

        invoker.create_sandbox = create_sandbox
    return refused


def run_cell() -> dict:
    """Forty invocations (one retried, one on a missing input) under
    ``gc.DEBUG_SAVEALL``; what the collector found, by type."""
    ofc = build_ofc_env(nodes=2, node_mb=4096, seed=0)
    model = get_function_model("wand_sepia")
    ofc.platform.register_function(model.spec(tenant="t0"))
    corpus = MediaCorpus(np.random.default_rng(0))
    for i in range(4):
        image = corpus.image(64 * KB)
        ofc.kernel.run_until(
            ofc.kernel.process(
                ofc.store.put(
                    "inputs", f"img{i}", image, size=image.size,
                    user_meta=image.features(),
                )
            )
        )
    refused = _refuse_the_first_sandbox(ofc)
    records = []
    ofc.platform.completion_listeners.append(records.append)
    rng = np.random.default_rng(1)

    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for i in range(40):
            ref = "inputs/missing" if i == 7 else f"inputs/img{i % 4}"
            ofc.platform.submit(
                InvocationRequest(
                    function="wand_sepia",
                    tenant="t0",
                    args={"threshold": float(rng.uniform(0.5, 1.0))},
                    input_ref=ref,
                )
            )
            ofc.kernel.run(until=ofc.kernel.now + 0.5)
        ofc.kernel.run(until=ofc.kernel.now + 30.0)
        gc.collect()
        garbage = Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return {
        "refused": len(refused),
        "retried": sum(1 for r in records if r.retries),
        "failed": sum(1 for r in records if r.status == "failed"),
        "garbage": dict(garbage.most_common(8)),
    }


def test_a_seeded_run_feeds_the_collector_nothing():
    """In a fresh interpreter: in this one, objects an earlier test left
    in a cycle (a Hypothesis example's kernel, say) can be released
    during the window and would be counted as the cell's."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    child = subprocess.run(
        [
            sys.executable,
            "-c",
            "import json; from tests.test_no_cyclic_garbage import run_cell; "
            "print(json.dumps(run_cell()))",
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.splitlines()[-1])
    assert result["refused"] == 1 and result["retried"] >= 1
    assert result["failed"] == 1
    assert result["garbage"] == {}


def test_a_failed_attempt_keeps_its_message():
    """The record's error is the last attempt's ``Type: message``."""
    ofc = build_ofc_env(nodes=2, node_mb=4096, seed=0)
    model = get_function_model("wand_sepia")
    ofc.platform.register_function(model.spec(tenant="t0"))
    refused = _refuse_the_first_sandbox(ofc)
    record = ofc.invoke(
        InvocationRequest(
            function="wand_sepia",
            tenant="t0",
            args={"threshold": 0.8},
            input_ref="inputs/missing",
        )
    )
    assert record.status == "failed"
    assert record.retries == 1
    assert record.error == "NoSuchObject: inputs/missing"
    assert refused
