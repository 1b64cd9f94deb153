"""Shared fixtures for platform tests."""

import pytest

from repro.faas import FaaSPlatform, FunctionSpec, PlatformConfig
from repro.sim import Kernel
from repro.storage import ObjectStore, SWIFT_PROFILE


def make_etl_body(footprint_mb=100.0, compute_s=0.05, out_size=1000):
    """A canonical single-stage ETL function body for tests."""

    def body(ctx):
        request = ctx.request
        if request.input_ref:
            bucket, name = request.input_ref.split("/", 1)
            yield from ctx.read(bucket, name)
        yield from ctx.compute(compute_s, footprint_mb)
        yield from ctx.write(
            request.output_bucket, f"out-{request.request_id}", "result", out_size
        )

    return body


@pytest.fixture()
def env():
    kernel = Kernel()
    store = ObjectStore(kernel, profile=SWIFT_PROFILE)
    store.rng = None
    for bucket in ("inputs", "outputs"):
        store.create_bucket(bucket)
    platform = FaaSPlatform(kernel, store, PlatformConfig(node_memory_mb=4096))
    return kernel, store, platform


def deploy(platform, name="fn", tenant="t0", booked=512.0, **body_kwargs):
    spec = FunctionSpec(
        name=name,
        tenant=tenant,
        body=make_etl_body(**body_kwargs),
        booked_memory_mb=booked,
    )
    platform.register_function(spec)
    return spec


def logging_resumptions(generator_fn, log):
    """``generator_fn`` with the kernel time of every resumption after
    its start appended to ``log`` (the wrapped call's first argument is
    the invocation context)."""

    def logged(ctx, *args):
        inner = generator_fn(ctx, *args)
        try:
            target = next(inner)
            while True:
                value = yield target
                log.append(ctx.kernel.now)
                target = inner.send(value)
        except StopIteration as stop:
            return stop.value

    return logged
