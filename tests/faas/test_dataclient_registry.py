"""Unit tests for DirectStoreClient and the function registry."""

import pytest

from repro.faas import DirectStoreClient, FunctionSpec, NoSuchFunction
from repro.faas.registry import FunctionRegistry
from repro.sim import Kernel
from repro.storage import ObjectStore, SWIFT_PROFILE


def make_store():
    kernel = Kernel()
    store = ObjectStore(kernel, profile=SWIFT_PROFILE)
    store.rng = None
    store.create_bucket("b")
    return kernel, store


def test_direct_client_roundtrip():
    kernel, store = make_store()
    client = DirectStoreClient(store)

    def scenario():
        yield from client.write("b", "o", {"k": 1}, 100)
        obj = yield from client.read("b", "o")
        yield from client.delete("b", "o")
        return obj

    obj = kernel.run_process(scenario())
    assert obj.payload == {"k": 1}
    assert not store.contains("b", "o")


def test_direct_client_creates_buckets_on_write():
    kernel, store = make_store()
    client = DirectStoreClient(store)

    def scenario():
        yield from client.write("new-bucket", "o", None, 10)

    kernel.run_process(scenario())
    assert store.has_bucket("new-bucket")


def test_direct_client_ignores_pipeline_hints():
    """The baseline client has no cache: intermediate flags are inert."""
    kernel, store = make_store()
    client = DirectStoreClient(store)

    def scenario():
        yield from client.write(
            "b", "o", "x", 10, intermediate=True, pipeline_id="p-1"
        )

    kernel.run_process(scenario())
    assert not store.peek_meta("b", "o").is_shadow  # full write happened


# -- registry --------------------------------------------------------------------


def body(ctx):
    return
    yield  # pragma: no cover


def test_registry_lookup_by_tenant_and_name():
    registry = FunctionRegistry()
    spec = FunctionSpec(name="f", tenant="t", body=body)
    registry.register(spec)
    assert registry.get("t", "f") is spec
    assert "t/f" in registry
    assert "t/g" not in registry


def test_registry_unknown_function_raises():
    registry = FunctionRegistry()
    with pytest.raises(NoSuchFunction):
        registry.get("t", "ghost")


def test_registry_same_name_different_tenants():
    registry = FunctionRegistry()
    a = FunctionSpec(name="f", tenant="alice", body=body)
    b = FunctionSpec(name="f", tenant="bob", body=body)
    registry.register(a)
    registry.register(b)
    assert registry.get("alice", "f") is a
    assert registry.get("bob", "f") is b


def test_reregistering_replaces_spec():
    registry = FunctionRegistry()
    registry.register(FunctionSpec(name="f", tenant="t", body=body,
                                   booked_memory_mb=256))
    registry.register(FunctionSpec(name="f", tenant="t", body=body,
                                   booked_memory_mb=1024))
    assert registry.get("t", "f").booked_memory_mb == 1024
