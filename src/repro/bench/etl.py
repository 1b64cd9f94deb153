"""Figures 3 and 7: where one invocation's time goes — Extract, Transform
or Load.

Both figures seed a workload's input, invoke it once and split the
record into its E/T/L phases; they differ only in the deployments
compared (the ``config`` of an :class:`EtlRow`):

* **Figure 3** (motivation) — ``s3``: all data in an S3-profile RSDS;
  ``redis``: all data in an ElastiCache-Redis-profile IMOC.  One
  jitter-free deployment per store serves every input size in turn.
* **Figure 7** — ``OWK-Swift`` and ``OWK-Redis`` (stock platform over a
  Swift RSDS / a Redis IMOC) and OFC in three cache scenarios on one
  deployment: ``OFC-M`` (Miss: the input is not cached, outputs still
  are), ``OFC-LH`` (LocalHit: the input's master copy is on the worker
  that runs the function) and ``OFC-RH`` (RemoteHit: the master copy was
  migrated to another worker).  Every (workload, size) is an independent
  cell for the parallel runner.

A workload is a single-stage function model or a multi-stage pipeline
app; :class:`_Workload` hides the difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.bench.envs import (
    build_ofc_env,
    build_owk_redis_env,
    build_owk_swift_env,
)
from repro.bench.runner import run_grid
from repro.faas.platform import FaaSPlatform, PlatformConfig
from repro.faas.records import InvocationRequest
from repro.sim.kernel import Kernel
from repro.sim.latency import REDIS_PROFILE, S3_PROFILE
from repro.storage.object_store import ObjectStore
from repro.workloads.functions import get_function_model
from repro.workloads.media import MediaCorpus
from repro.workloads.pipelines import ALL_PIPELINES

#: Node memory for Figure 7: wide fan-out keeps many 1 GB sandboxes
#: alive concurrently (the paper's nodes had 512 GB).
FIG7_NODE_MB = 65536.0
#: Memory booked for a single-stage function.
BOOKED_MB = 2048


@dataclass
class EtlRow:
    workload: str
    input_size: int
    #: s3 | redis (Figure 3); OWK-Swift | OWK-Redis | OFC-M | OFC-LH |
    #: OFC-RH (Figure 7).
    config: str
    extract_s: float
    transform_s: float
    load_s: float

    @property
    def total_s(self) -> float:
        return self.extract_s + self.transform_s + self.load_s

    @property
    def el_fraction(self) -> float:
        return (self.extract_s + self.load_s) / self.total_s


class _Workload:
    """One function model or pipeline app on one deployment, for tenant
    ``t0``: it registers itself, seeds an input (:meth:`seed`) and runs
    once on it per :meth:`run`, returning the E/T/L split as a row."""

    def __init__(self, name: str, kernel, store, platform, seed: int):
        self.name = name
        self.kernel = kernel
        self.store = store
        self.platform = platform
        self.corpus = MediaCorpus(np.random.default_rng(seed))
        self.app = ALL_PIPELINES.get(name)
        if self.app is not None:
            self.app.register(platform, tenant="t0")
        else:
            self.model = get_function_model(name)
            self.args_rng = np.random.default_rng(seed)
            platform.register_function(
                self.model.spec(tenant="t0", booked_mb=BOOKED_MB)
            )
        self.refs: List[str] = []
        self.size = 0

    def _wait(self, generator):
        return self.kernel.run_until(self.kernel.process(generator))

    def seed(self, size: int) -> None:
        """Write a ``size``-byte input (and, for a function, draw its
        arguments): what the following runs read."""
        self.size = size
        if self.app is not None:
            self.refs = self._wait(
                self.app.prepare_inputs(self.store, self.corpus, size)
            )
            return
        media = self.corpus.image(size)
        name = f"in-{size}"
        self._wait(
            self.store.put(
                "inputs", name, media, size=media.size, user_meta=media.features()
            )
        )
        self.refs = [f"inputs/{name}"]
        self.args = self.model.sample_args(self.args_rng)

    def run(self, config: str) -> EtlRow:
        if self.app is not None:
            record = self._wait(
                self.platform.invoke_pipeline(
                    self.app.pipeline, tenant="t0", input_refs=self.refs
                )
            )
            phases = record.phase_split()
        else:
            (ref,) = self.refs
            record = self._wait(
                self.platform.invoke(
                    InvocationRequest(
                        function=self.name, tenant="t0", args=self.args, input_ref=ref
                    )
                )
            )
            phases = record.phases
        assert record.status == "ok", f"{self.name} failed: {record}"
        return EtlRow(
            workload=self.name,
            input_size=self.size,
            config=config,
            extract_s=phases.extract,
            transform_s=phases.transform,
            load_s=phases.load,
        )


def run_fig3(workload: str, sizes: Sequence[int], seed: int = 0) -> List[EtlRow]:
    """Figure 3: ``workload`` at every size, S3 RSDS vs Redis IMOC."""
    rows = []
    for config, profile in (("s3", S3_PROFILE), ("redis", REDIS_PROFILE)):
        kernel = Kernel()
        store = ObjectStore(kernel, profile=profile, rng=None)  # no jitter
        platform = FaaSPlatform(
            kernel,
            store,
            PlatformConfig(node_ids=["w0", "w1", "w2"], node_memory_mb=16384),
            rng=None,
        )
        store.ensure_bucket("inputs")
        store.ensure_bucket("outputs")
        load = _Workload(workload, kernel, store, platform, seed)
        for size in sizes:
            load.seed(size)
            rows.append(load.run(config))
    return rows


def _fig7_cell(cell) -> List[EtlRow]:
    """One (workload, size) cell: all five configurations.  Module-level
    and payload-picklable for the parallel runner."""
    name, size, seed = cell
    rows = []
    # Baselines: one cold run each (phases exclude scheduling).
    for config, build in (
        ("OWK-Swift", build_owk_swift_env),
        ("OWK-Redis", build_owk_redis_env),
    ):
        env = build(seed=seed, node_mb=FIG7_NODE_MB)
        load = _Workload(name, env.kernel, env.store, env.platform, seed)
        load.seed(size)
        rows.append(load.run(config))
    # OFC on one deployment: the first run misses; the second hits the
    # inputs cached on the nodes that consumed them; then the masters
    # move away and the third hits remotely.
    ofc = build_ofc_env(seed=seed, node_mb=FIG7_NODE_MB)
    load = _Workload(name, ofc.kernel, ofc.store, ofc.platform, seed)
    load.seed(size)
    rows.append(load.run("OFC-M"))
    rows.append(load.run("OFC-LH"))
    for ref in load.refs:
        if ofc.cluster.contains(ref):
            load._wait(ofc.cluster.migrate_master(ref))
    rows.append(load.run("OFC-RH"))
    return rows


def run_fig7(
    workloads: Sequence[str],
    sizes: Sequence[int],
    seed: int = 0,
    workers: Optional[int] = None,
) -> List[EtlRow]:
    """Figure 7: every workload at every size under all five
    configurations, one runner cell per (workload, size)."""
    cells = [(name, size, seed) for name in workloads for size in sizes]
    return [
        row for rows in run_grid(_fig7_cell, cells, workers=workers) for row in rows
    ]
