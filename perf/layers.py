"""One microbenchmark per layer operation: direct timed calls into the
public surface of each package under ``src/repro/``, on a small fixture.

Every benchmark is a function ``bench(n) -> (operations, seconds)`` that
builds its fixture untimed and times ``n`` repetitions of one operation.
:func:`measure` sizes ``n`` to a target duration and reports the median
rate of a few timings.  A microbenchmark says how fast a layer is in
isolation; whether that matters is what the workloads' ``host.*.share``
rows say.
"""

from __future__ import annotations

import functools
import statistics
from time import perf_counter
from typing import Callable, Dict, Generator, Tuple

import numpy as np

import perf  # noqa: F401  (puts src/ on sys.path)
from repro.bench.envs import build_ofc_env, pretrain_function
from repro.checks import check_history, HistoryRecorder
from repro.core.config import OFCConfig
from repro.faas import (
    FaaSPlatform,
    FunctionSpec,
    HomeWorkerScheduler,
    InvocationRecord,
    InvocationRequest,
    PlatformConfig,
)
from repro.kvcache import CacheCluster
from repro.ml import Dataset, J48Classifier
from repro.obs import trace
from repro.sim import Event, Kernel
from repro.storage import ObjectStore, SWIFT_PROFILE
from repro.workloads.functions import get_function_model
from repro.workloads.media import MediaCorpus
from repro.workloads.tenants import (
    MergedArrivalStream,
    synthesize_tenants,
    TenantWorkloadConfig,
)

KB = 1024
MB = 1024 * 1024
NODES = ["w0", "w1", "w2", "w3"]
OBJECT_BYTES = 64 * KB

Bench = Callable[[int], Tuple[int, float]]


def _timed(kernel: Kernel, body: Generator) -> float:
    """Host seconds to run ``body`` as a process to completion."""
    process = kernel.process(body)
    started = perf_counter()
    kernel.run_until(process)
    return perf_counter() - started


# -- sim -----------------------------------------------------------------------


def sim_sleep(n: int):
    kernel = Kernel()

    def sleeper():
        for _ in range(n):
            yield 1.0

    return n, _timed(kernel, sleeper())


def sim_event_pingpong(n: int):
    kernel = Kernel()
    box = {"event": None}

    def producer():
        for _ in range(n):
            yield kernel.timeout(0.001)
            event, box["event"] = box["event"], None
            if event is not None:
                event.succeed(42)

    def consumer():
        for _ in range(n):
            event = box["event"] = Event(kernel)
            yield event

    kernel.process(producer())
    return 3 * n, _timed(kernel, consumer())


def sim_process_churn(n: int):
    kernel = Kernel()

    def child():
        yield kernel.timeout(0.5)

    def spawner():
        for _ in range(n):
            yield kernel.process(child())

    return 3 * n, _timed(kernel, spawner())


# -- faas ----------------------------------------------------------------------


def _stock_platform():
    kernel = Kernel()
    store = ObjectStore(kernel, profile=SWIFT_PROFILE, rng=np.random.default_rng(1))
    platform = FaaSPlatform(
        kernel, store, PlatformConfig(node_ids=list(NODES)),
        rng=np.random.default_rng(2),
    )
    return kernel, store, platform


def _compute_only(ctx):
    yield from ctx.compute(0.001, 32.0)


def _invoke_all(platform, requests):
    for request in requests:
        yield from platform.invoke(request)


def faas_invoke_warm(n: int):
    kernel, _store, platform = _stock_platform()
    platform.keep_records = False
    platform.register_function(FunctionSpec("f", "t", _compute_only, 128.0))
    requests = [InvocationRequest(function="f", tenant="t") for _ in range(n + 1)]
    kernel.run_until(kernel.process(platform.invoke(requests.pop())))
    return n, _timed(kernel, _invoke_all(platform, requests))


def faas_invoke_cold(n: int):
    """Every invocation is the first of its function: a sandbox is
    created each time, and older idle ones are destroyed to make room."""
    kernel, _store, platform = _stock_platform()
    platform.keep_records = False
    for i in range(n):
        platform.register_function(FunctionSpec("f", f"t{i}", _compute_only, 128.0))
    requests = [InvocationRequest(function="f", tenant=f"t{i}") for i in range(n)]
    return n, _timed(kernel, _invoke_all(platform, requests))


def faas_choose_node(n: int):
    kernel, _store, platform = _stock_platform()
    for i in range(16):
        platform.register_function(FunctionSpec("f", f"t{i}", _compute_only, 128.0))
        kernel.run_until(
            kernel.process(
                platform.invoke(InvocationRequest(function="f", tenant=f"t{i}"))
            )
        )
    scheduler = HomeWorkerScheduler()
    requests = [InvocationRequest(function="f", tenant=f"t{i}") for i in range(32)]
    started = perf_counter()
    for i in range(n):
        scheduler.choose_node(requests[i % 32], 128.0, platform.invokers)
    return n, perf_counter() - started


# -- core ----------------------------------------------------------------------


def _ofc(backend: str = "ofc", node_mb: float = 4096.0):
    return build_ofc_env(
        nodes=len(NODES), node_mb=node_mb, seed=3,
        config=OFCConfig(cache_backend=backend),
    )


def _seed_inputs(ofc, count: int):
    """``count`` image objects in the RSDS; returns (names, descriptors)."""
    corpus = MediaCorpus(np.random.default_rng(11))
    images = [corpus.image(OBJECT_BYTES) for _ in range(count)]
    names = [f"img{i}" for i in range(count)]

    def writer():
        for name, image in zip(names, images):
            yield from ofc.store.put(
                "inputs", name, image, size=image.size, user_meta=image.features()
            )

    ofc.kernel.run_until(ofc.kernel.process(writer()))
    return names, images


def _client(ofc, node: int = 0):
    """The data client a function body on ``node`` would be handed."""
    record = InvocationRecord(
        request=InvocationRequest(function="f", tenant="t"), should_cache=True
    )
    return ofc.platform.data_client_factory(ofc.platform.invokers[node], record)


def _read_all(client, names, rounds: int = 1):
    for _ in range(rounds):
        for name in names:
            yield from client.read("inputs", name)


def core_read_hit(n: int):
    ofc = _ofc()
    names, _images = _seed_inputs(ofc, 32)
    client = _client(ofc)
    ofc.kernel.run_until(ofc.kernel.process(_read_all(client, names)))
    ofc.kernel.run(until=ofc.kernel.now + 5.0)  # let the cache fills land
    rounds = max(1, n // len(names))
    return rounds * len(names), _timed(ofc.kernel, _read_all(client, names, rounds))


def core_read_miss(n: int):
    ofc = _ofc()
    names, _images = _seed_inputs(ofc, n)
    return n, _timed(ofc.kernel, _read_all(_client(ofc), names))


def core_write(n: int):
    """Cached write: RSDS shadow, cache put, write-back scheduled."""
    ofc = _ofc()
    client = _client(ofc)
    payload = MediaCorpus(np.random.default_rng(11)).image(OBJECT_BYTES)

    def writer():
        for i in range(n):
            yield from client.write("outputs", f"out{i}", payload, payload.size)

    return n, _timed(ofc.kernel, writer())


def core_sizing_policy(n: int):
    ofc = _ofc()
    model = get_function_model("wand_blur")
    names, images = _seed_inputs(ofc, 8)
    spec = model.spec(tenant="t")
    ofc.platform.register_function(spec)
    pretrain_function(ofc, model, images, tenant="t", seed=0)
    rng = np.random.default_rng(5)
    requests = [
        InvocationRequest(
            function=spec.name, tenant="t", args=model.sample_args(rng),
            input_ref=f"inputs/{names[i % len(names)]}",
        )
        for i in range(n)
    ]

    def predictor():
        for request in requests:
            record = InvocationRecord(request=request)
            yield from ofc.predictor.sizing_policy(request, spec, record)

    return n, _timed(ofc.kernel, predictor())


def core_ensure_capacity(n: int):
    """The invoker's make-room hook: each round the node is 1 MB short
    and the agent hands 1 MB of cache back."""
    ofc = _ofc(node_mb=8192.0)
    names, _images = _seed_inputs(ofc, 64)
    ofc.kernel.run_until(ofc.kernel.process(_read_all(_client(ofc), names)))
    ofc.kernel.run(until=ofc.kernel.now + 5.0)
    invoker = ofc.platform.invokers[0]
    agent = ofc.agents[invoker.node_id]
    n = min(n, 4096)  # the node has 8 GB to give

    def squeeze():
        for _ in range(n):
            invoker.total_memory_mb -= 1.0 + max(0.0, invoker.available_mb)
            yield from agent.ensure_capacity(invoker, 1.0)

    return n, _timed(ofc.kernel, squeeze())


# -- kvcache -------------------------------------------------------------------


def _cluster(node_mb: int = 1024):
    kernel = Kernel()
    cluster = CacheCluster(
        kernel, list(NODES), replication_factor=2, rng=np.random.default_rng(4)
    )
    for node in NODES:
        cluster.server(node).resize(node_mb * MB)
    return kernel, cluster


def _fill(cluster, n: int, caller: str = "w0"):
    for i in range(n):
        yield from cluster.put(f"k{i}", i, OBJECT_BYTES, caller=caller)


def kvcache_put(n: int):
    n = min(n, 8192)  # 512 MB of 64 KB objects on one node
    kernel, cluster = _cluster()
    return n, _timed(kernel, _fill(cluster, n))


def kvcache_get(n: int):
    kernel, cluster = _cluster()
    kernel.run_until(kernel.process(_fill(cluster, 256)))

    def reader():
        for i in range(n):
            yield from cluster.get(f"k{i % 256}", caller=NODES[i % 4])

    return n, _timed(kernel, reader())


def kvcache_delete(n: int):
    n = min(n, 8192)
    kernel, cluster = _cluster()
    kernel.run_until(kernel.process(_fill(cluster, n)))

    def deleter():
        for i in range(n):
            yield from cluster.delete(f"k{i}", caller="w0")

    return n, _timed(kernel, deleter())


def kvcache_migrate(n: int):
    n = min(n, 8192)
    kernel, cluster = _cluster()
    kernel.run_until(kernel.process(_fill(cluster, n)))

    def migrator():
        for i in range(n):
            yield from cluster.migrate_master(f"k{i}")

    return n, _timed(kernel, migrator())


def kvcache_recover(n: int):
    n = min(n, 8192)
    kernel, cluster = _cluster()
    kernel.run_until(kernel.process(_fill(cluster, n)))
    cluster.crash("w0")
    return n, _timed(kernel, cluster.recover("w0"))


# -- cache ---------------------------------------------------------------------


def _backend_putget(name: str) -> Bench:
    def bench(n: int):
        ofc = _ofc(backend=name)
        backend = ofc.backend

        def putget():
            for i in range(n):
                key = f"outputs/k{i % 512}"
                yield from backend.put(
                    key, i, OBJECT_BYTES, caller=NODES[i % 4],
                    flags={"tenant": "t", "dirty": False},
                )
                yield from backend.get(key, caller=NODES[(i + 1) % 4])

        return n, _timed(ofc.kernel, putget())

    return bench


# -- storage -------------------------------------------------------------------


def storage_put(n: int):
    kernel, store, _platform = _stock_platform()
    store.ensure_bucket("b")

    def writer():
        for i in range(n):
            yield from store.put("b", f"o{i}", i, OBJECT_BYTES)

    return n, _timed(kernel, writer())


def storage_get(n: int):
    kernel, store, _platform = _stock_platform()
    store.ensure_bucket("b")

    def fill():
        for i in range(256):
            yield from store.put("b", f"o{i}", i, OBJECT_BYTES)

    kernel.run_until(kernel.process(fill()))

    def reader():
        for i in range(n):
            yield from store.get("b", f"o{i % 256}")

    return n, _timed(kernel, reader())


# -- workloads -----------------------------------------------------------------


def workloads_tenant_arrivals(n: int):
    config = TenantWorkloadConfig(n_tenants=200, mean_interval_s=4.0, seed=0)
    stream = iter(MergedArrivalStream(synthesize_tenants(config), deadline=1e9))
    started = perf_counter()
    for _ in range(n):
        next(stream)
    return n, perf_counter() - started


def workloads_function_model(n: int):
    model = get_function_model("wand_blur")
    image = MediaCorpus(np.random.default_rng(11)).image(256 * KB)
    rng = np.random.default_rng(5)
    started = perf_counter()
    for _ in range(n):
        args = model.sample_args(rng)
        model.footprint_mb(image, args, rng)
        model.transform_time(image, args)
        model.output_size(image, args)
    return n, perf_counter() - started


# -- ml ------------------------------------------------------------------------


def _dataset(rows: int) -> Dataset:
    """Mixed numeric and nominal features, weighted rows: the shape the
    trainer fits (§5.3.3)."""
    rng = np.random.default_rng(7)
    formats = ("jpeg", "png", "bmp", "webp")
    features, labels, weights = [], [], []
    for _ in range(rows):
        size = float(rng.integers(1, 4096))
        sigma = float(rng.uniform(0.0, 8.0))
        features.append(
            {
                "in_size": size * 1024.0,
                "pixels": size * 210.0,
                "arg_sigma": sigma,
                "format": formats[int(rng.integers(0, len(formats)))],
            }
        )
        labels.append(int(min(127, (size * (1.0 + sigma / 4.0)) // 512)))
        weights.append(3.0 if rng.random() < 0.2 else 1.0)
    return Dataset(features, labels, weights=weights)


def ml_j48_fit(n: int):
    rows = max(64, min(n, 4096))
    dataset = _dataset(rows)
    started = perf_counter()
    J48Classifier().fit(dataset)
    return rows, perf_counter() - started


@functools.lru_cache(maxsize=None)
def _fitted(rows: int):
    dataset = _dataset(rows)
    return J48Classifier().fit(dataset), dataset.rows


def ml_j48_predict(n: int):
    classifier, rows = _fitted(1024)
    rounds = max(1, n // len(rows))
    started = perf_counter()
    for _ in range(rounds):
        classifier.predict(rows)
    return rounds * len(rows), perf_counter() - started


# -- checks --------------------------------------------------------------------


def _recorded_history(n: int):
    """A deployment whose recorder holds ``n`` reads and ``n`` writes."""
    ofc = _ofc()
    recorder = HistoryRecorder(ofc)
    names, images = _seed_inputs(ofc, 32)
    client = _client(ofc)

    def workload():
        for i in range(n):
            yield from client.read("inputs", names[i % 32])
            yield from client.write("outputs", f"out{i}", images[i % 32], OBJECT_BYTES)

    elapsed = _timed(ofc.kernel, workload())
    return ofc, recorder, elapsed


def checks_record_op(n: int):
    """Reads and writes through the recording data client (the cost of
    the operations themselves is ``micro.core.*``)."""
    _ofc_, recorder, elapsed = _recorded_history(n)
    return len(recorder.ops), elapsed


def checks_check_history(n: int):
    ofc, recorder, _elapsed = _recorded_history(min(n, 4096))
    ofc.kernel.run(until=ofc.kernel.now + 30.0)  # write-backs complete
    started = perf_counter()
    check_history(recorder.ops, ofc)
    return len(recorder.ops), perf_counter() - started


# -- obs -----------------------------------------------------------------------


def obs_tracing_slowdown(seconds: float) -> float:
    """Host time of warm invocations with span tracing on, over the same
    with tracing off (1.0 = free)."""
    plain = measure(faas_invoke_warm, seconds)
    trace.enable_tracing()
    try:
        traced = measure(faas_invoke_warm, seconds)
    finally:
        trace.reset_tracing()
    return plain / traced


# -- registry ------------------------------------------------------------------

#: per-layer metric name -> benchmark; all rates, in operations per
#: second, except ``micro.obs.tracing_slowdown`` (a ratio, below).
RATES: Dict[str, Bench] = {
    "micro.sim.sleep_events_per_s": sim_sleep,
    "micro.sim.event_pingpong_events_per_s": sim_event_pingpong,
    "micro.sim.process_churn_events_per_s": sim_process_churn,
    "micro.faas.invoke_warm_per_s": faas_invoke_warm,
    "micro.faas.invoke_cold_per_s": faas_invoke_cold,
    "micro.faas.choose_node_per_s": faas_choose_node,
    "micro.core.read_hit_per_s": core_read_hit,
    "micro.core.read_miss_per_s": core_read_miss,
    "micro.core.write_per_s": core_write,
    "micro.core.sizing_policy_per_s": core_sizing_policy,
    "micro.core.ensure_capacity_per_s": core_ensure_capacity,
    "micro.kvcache.put_per_s": kvcache_put,
    "micro.kvcache.get_per_s": kvcache_get,
    "micro.kvcache.delete_per_s": kvcache_delete,
    "micro.kvcache.migrate_objects_per_s": kvcache_migrate,
    "micro.kvcache.recover_objects_per_s": kvcache_recover,
    "micro.cache.ofc_putget_per_s": _backend_putget("ofc"),
    "micro.cache.faast_putget_per_s": _backend_putget("faast"),
    "micro.cache.infinicache_putget_per_s": _backend_putget("infinicache"),
    "micro.storage.put_per_s": storage_put,
    "micro.storage.get_per_s": storage_get,
    "micro.workloads.tenant_arrivals_per_s": workloads_tenant_arrivals,
    "micro.workloads.function_model_per_s": workloads_function_model,
    "micro.ml.j48_fit_rows_per_s": ml_j48_fit,
    "micro.ml.j48_predict_rows_per_s": ml_j48_predict,
    "micro.checks.record_op_per_s": checks_record_op,
    "micro.checks.check_history_ops_per_s": checks_check_history,
}
TRACING_SLOWDOWN = "micro.obs.tracing_slowdown"
NAMES = tuple(RATES) + (TRACING_SLOWDOWN,)

TIMINGS = 3


def measure(bench: Bench, seconds: float) -> float:
    """Median rate of ``TIMINGS`` timings of about ``seconds`` each."""
    n, elapsed = 16, 0.0
    while True:
        ops, elapsed = bench(n)
        if elapsed >= seconds / 4 or n >= 1 << 22:
            break
        n *= 4
    n = max(1, int(n * seconds / max(elapsed, 1e-9)))
    rates = []
    for _ in range(TIMINGS):
        ops, elapsed = bench(n)
        rates.append(ops / elapsed)
    return statistics.median(rates)


def run_all(seconds: float) -> Dict[str, Dict[str, object]]:
    """Every microbenchmark; one that raises is reported absent (value
    0, the error kept) so a refactored layer costs one row, not the run."""
    out: Dict[str, Dict[str, object]] = {}
    for name in NAMES:
        try:
            if name == TRACING_SLOWDOWN:
                value = obs_tracing_slowdown(seconds)
            else:
                value = measure(RATES[name], seconds)
            out[name] = {"value": value}
        except Exception as exc:  # noqa: BLE001 - the ledger must survive
            out[name] = {"value": 0.0, "absent": f"{type(exc).__name__}: {exc}"}
    return out
