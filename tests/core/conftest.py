"""Shared fixtures for OFC core tests."""

import numpy as np
import pytest

from repro.core import OFCPlatform
from repro.faas.platform import PlatformConfig
from repro.faas.records import InvocationRequest
from repro.sim.latency import KB
from repro.workloads.functions import get_function_model
from repro.workloads.media import MediaCorpus


@pytest.fixture()
def ofc():
    """A started OFC deployment with 4 workers of 4 GB each."""
    system = OFCPlatform(
        platform_config=PlatformConfig(node_memory_mb=4096), seed=3
    )
    system.store.create_bucket("inputs")
    system.store.create_bucket("outputs")
    system.start()
    return system


def seed_images(ofc, n=4, size=64 * KB, prefix="img"):
    """Write n image inputs with extracted features; returns refs."""
    corpus = MediaCorpus(np.random.default_rng(11))
    refs = []

    def writer():
        for i in range(n):
            img = corpus.image(size)
            name = f"{prefix}{i}"
            yield from ofc.store.put(
                "inputs", name, img, size=img.size, user_meta=img.features()
            )
            refs.append(f"inputs/{name}")

    ofc.kernel.run_until(ofc.kernel.process(writer()))
    return refs


def deploy(ofc, fn_name="wand_sepia", tenant="t0", booked=512.0):
    model = get_function_model(fn_name)
    ofc.platform.register_function(model.spec(tenant=tenant, booked_mb=booked))
    return model


def invoke(ofc, fn_name="wand_sepia", tenant="t0", ref=None, args=None):
    request = InvocationRequest(
        function=fn_name,
        tenant=tenant,
        args=args or {"threshold": 0.8},
        input_ref=ref,
    )
    return ofc.invoke(request)
