"""Figure 8: cost of OFC's cache scaling on function latency (§7.2.1).

Four scenarios around a warm 64 MB ``wand_sepia`` container whose next
invocation needs more memory (84–152 MB footprints):

* **Sc0** — no cache shrink needed (node has free memory);
* **Sc1** — cache shrinks without touching data (pool mostly empty);
* **Sc2** — cache shrink requires migrating master copies away;
* **Sc3** — cache shrink requires evicting objects (no migration
  target available).

For each scenario the driver reports the cache scale-down time, the
container memory-limit update time (cgroup/docker path) and the overall
function execution time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.bench.envs import build_ofc_env
from repro.bench.runner import run_grid
from repro.faas.platform import SizingDecision
from repro.faas.records import InvocationRequest
from repro.sim.latency import DOCKER_UPDATE, KB, MB
from repro.workloads.functions import get_function_model
from repro.workloads.media import MediaCorpus

SCENARIOS = ("Sc0", "Sc1", "Sc2", "Sc3")
#: §7.2.1's hand-off times (ms) at :func:`migration_time_sweep`'s sizes.
PAPER_MIGRATION_MS = (0.18, 1.2, 3.8, 7.5, 13.5)


@dataclass
class Fig8Row:
    scenario: str
    input_size: int
    scaling_time_s: float
    cgroup_sys_time_s: float
    exec_time_s: float
    migrated: bool
    evicted: bool


def _fill_cache(ofc, node_id: str, fraction: float = 0.97) -> None:
    """Stuff a node's cache with clean 8 MB input objects."""
    server = ofc.cluster.server(node_id)
    target = int(server.capacity * fraction)
    index = 0

    def filler():
        nonlocal index
        while server.used_bytes < target:
            key = f"fill/{node_id}-{index}"
            index += 1
            yield from ofc.cluster.put(
                key,
                "filler",
                8 * MB,
                caller=node_id,
                flags={"dirty": False, "input": True},
            )

    ofc.kernel.run_until(ofc.kernel.process(filler()))


def _fig8_cell(cell) -> Fig8Row:
    """One (scenario, size) cell; module-level for the parallel runner."""
    scenario, size, seed = cell
    model = get_function_model("wand_sepia")
    # Two nodes: w0 hosts the warm container, w1 is the
    # migration target (crashed in Sc3).
    ofc = build_ofc_env(nodes=2, node_mb=2048, seed=seed)
    ofc.platform.register_function(model.spec(tenant="t0", booked_mb=512))
    corpus = MediaCorpus(np.random.default_rng(seed))
    media = corpus.image(size)

    def put():
        yield from ofc.store.put(
            "inputs",
            "img",
            media,
            size=media.size,
            user_meta=media.features(),
        )

    ofc.kernel.run_until(ofc.kernel.process(put()))
    args = model.sample_args(np.random.default_rng(seed))
    footprint = model.footprint_mb(media, args)

    # Warm a 64 MB container (smallest configurable in OWK)
    # with a tiny invocation.
    warm_media = corpus.image(1 * KB)

    def put_warm():
        yield from ofc.store.put(
            "inputs",
            "warm",
            warm_media,
            size=warm_media.size,
            user_meta=warm_media.features(),
        )

    ofc.kernel.run_until(ofc.kernel.process(put_warm()))

    def warm_sizing(request, spec, record):
        return SizingDecision(memory_mb=128.0, should_cache=False)
        yield  # pragma: no cover

    ofc.platform.sizing_policy = warm_sizing
    warm_record = ofc.invoke(
        InvocationRequest(
            function="wand_sepia",
            tenant="t0",
            args={"threshold": 0.8},
            input_ref="inputs/warm",
        )
    )
    node_id = warm_record.node
    # Shrink the now-idle container to 64 MB — the paper's
    # starting state ("the smallest configurable memory in OWK").
    invoker = ofc.platform.invoker_by_id(node_id)
    sandbox = invoker.find_sandbox(f"t0/{model.name}")
    ofc.kernel.run_until(
        ofc.kernel.process(invoker.resize_sandbox(sandbox, 64.0))
    )
    ofc.kernel.run(until=ofc.kernel.now + 1.0)  # settle retargets

    # Scenario setup.
    if scenario == "Sc0":
        # Plenty of free memory: park the cache at a small size
        # so growth never requires a shrink.
        agent = ofc.agents[node_id]
        ofc.kernel.run_until(ofc.kernel.process(agent._shrink_to(64 * MB)))
        agent.invoker.cache_reserved_mb = 64.0
        agent.invoker.listeners.remove(agent._on_sandbox_event)
    elif scenario == "Sc2":
        _fill_cache(ofc, node_id)
    elif scenario == "Sc3":
        _fill_cache(ofc, node_id)
        ofc.cluster.crash("w1" if node_id == "w0" else "w0")
    # Sc1: cache owns the free memory but holds no data.

    # The measured invocation: the warm 64 MB container must
    # grow to the predicted footprint.
    target_mb = min(512.0, footprint + 16.0)

    def sized(request, spec, record, target=target_mb):
        return SizingDecision(memory_mb=target, should_cache=True)
        yield  # pragma: no cover

    ofc.platform.sizing_policy = sized
    before = ofc.metrics.snapshot()
    record = ofc.invoke(
        InvocationRequest(
            function="wand_sepia",
            tenant="t0",
            args=args,
            input_ref="inputs/img",
        )
    )
    after = ofc.metrics.snapshot()
    assert record.status == "ok", record
    scaling = after["scale_down_time_s"] - before["scale_down_time_s"]
    migrated = after["migrations"] > before["migrations"]
    evicted = after["scale_downs_eviction"] > before["scale_downs_eviction"]
    return Fig8Row(
        scenario=scenario,
        input_size=size,
        scaling_time_s=scaling,
        cgroup_sys_time_s=DOCKER_UPDATE.base_s,
        exec_time_s=record.execution_time,
        migrated=migrated,
        evicted=evicted,
    )


def run_fig8(
    sizes: Sequence[int],
    seed: int = 0,
    workers: Optional[int] = None,
) -> List[Fig8Row]:
    cells = [(scenario, size, seed) for scenario in SCENARIOS for size in sizes]
    return run_grid(_fig8_cell, cells, workers=workers)


def migration_time_sweep(
    sizes_mb: Sequence[int] = (8, 64, 256, 512, 1024),
) -> List[tuple]:
    """§7.2.1's migration-time ladder: aggregate hand-off time vs size.

    Returns (migrated MB, seconds) pairs; the paper reports
    :data:`PAPER_MIGRATION_MS`.
    """
    from repro.sim.latency import MIGRATION

    return [(mb, MIGRATION.mean(mb * MB)) for mb in sizes_mb]
