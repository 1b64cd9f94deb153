"""Unit tests for the RSDS object store."""

import dataclasses

import pytest

from repro.sim import Kernel
from repro.storage import (
    BucketExists,
    NoSuchBucket,
    NoSuchObject,
    ObjectMeta,
    ObjectStore,
    REDIS_PROFILE,
    SWIFT_PROFILE,
)


@pytest.fixture()
def env():
    kernel = Kernel()
    store = ObjectStore(kernel, profile=SWIFT_PROFILE)
    store.create_bucket("b")
    return kernel, store


def run(kernel, gen):
    return kernel.run_process(gen)


def test_put_then_get_roundtrip(env):
    kernel, store = env

    def scenario():
        yield from store.put("b", "o", payload={"w": 640}, size=1000)
        obj = yield from store.get("b", "o")
        return obj

    obj = run(kernel, scenario())
    assert obj.payload == {"w": 640}
    assert obj.meta.size == 1000
    assert obj.meta.version == 1
    assert obj.meta.rsds_version == 1
    assert not obj.meta.is_shadow


def test_get_missing_object_raises(env):
    kernel, store = env

    def scenario():
        yield from store.get("b", "missing")

    with pytest.raises(NoSuchObject):
        run(kernel, scenario())


def test_missing_bucket_raises(env):
    kernel, store = env

    def scenario():
        yield from store.put("nope", "o", payload=None, size=1)

    with pytest.raises(NoSuchBucket):
        run(kernel, scenario())


def test_duplicate_bucket_raises(env):
    _, store = env
    with pytest.raises(BucketExists):
        store.create_bucket("b")


def test_ensure_bucket_is_idempotent(env):
    _, store = env
    store.ensure_bucket("b")
    store.ensure_bucket("c")
    assert store.has_bucket("c")


def test_overwrite_bumps_version(env):
    kernel, store = env

    def scenario():
        yield from store.put("b", "o", payload="v1", size=10)
        yield from store.put("b", "o", payload="v2", size=20)
        obj = yield from store.get("b", "o")
        return obj

    obj = run(kernel, scenario())
    assert obj.meta.version == 2
    assert obj.payload == "v2"
    assert obj.meta.size == 20


def test_shadow_put_has_no_payload_and_lags_rsds_version(env):
    kernel, store = env

    def scenario():
        yield from store.put("b", "o", payload=None, size=5000, shadow=True)
        obj = yield from store.get("b", "o")
        return obj

    obj = run(kernel, scenario())
    assert obj.payload is None
    assert obj.meta.version == 1
    assert obj.meta.rsds_version == 0
    assert obj.meta.is_shadow
    assert store.stats.shadow_puts == 1


def test_shadow_put_is_fast_regardless_of_size(env):
    kernel, store = env
    store.rng = None  # deterministic latency

    def scenario():
        start = kernel.now
        yield from store.put("b", "big", None, size=10 * 1024 * 1024, shadow=True)
        return kernel.now - start

    duration = run(kernel, scenario())
    assert duration == pytest.approx(SWIFT_PROFILE.shadow_write.base_s, rel=0.01)
    assert duration < SWIFT_PROFILE.write.base_s / 2


def test_persist_payload_fills_shadow(env):
    kernel, store = env

    def scenario():
        meta = yield from store.put("b", "o", None, size=100, shadow=True)
        ok = yield from store.persist_payload("b", "o", "data", meta.version)
        obj = yield from store.get("b", "o")
        return ok, obj

    ok, obj = run(kernel, scenario())
    assert ok
    assert obj.payload == "data"
    assert not obj.meta.is_shadow


def test_persist_payload_rejects_stale_version(env):
    kernel, store = env

    def scenario():
        m1 = yield from store.put("b", "o", None, size=100, shadow=True)
        yield from store.put("b", "o", None, size=100, shadow=True)  # v2
        ok = yield from store.persist_payload("b", "o", "old", m1.version)
        obj = yield from store.get("b", "o")
        return ok, obj

    ok, obj = run(kernel, scenario())
    assert not ok
    assert obj.payload is None
    assert obj.meta.is_shadow


def test_delete_removes_object(env):
    kernel, store = env

    def scenario():
        yield from store.put("b", "o", "x", size=1)
        yield from store.delete("b", "o")
        return store.contains("b", "o")

    assert run(kernel, scenario()) is False


def test_delete_missing_raises(env):
    kernel, store = env

    def scenario():
        yield from store.delete("b", "ghost")

    with pytest.raises(NoSuchObject):
        run(kernel, scenario())


def test_stat_returns_meta_copy(env):
    kernel, store = env

    def scenario():
        yield from store.put("b", "o", "x", size=42, user_meta={"k": 1})
        meta = yield from store.stat("b", "o")
        meta.user_meta["k"] = 999  # must not leak into the store
        meta2 = yield from store.stat("b", "o")
        return meta2

    meta2 = run(kernel, scenario())
    assert meta2.size == 42
    assert meta2.user_meta == {"k": 1}


def test_meta_copy_carries_every_field():
    """``copy()`` passes the fields positionally: a field added or moved
    without updating it shows up here."""
    values = {
        "bucket": "b", "name": "o", "size": 7, "content_type": "image/png",
        "created_at": 1.5, "updated_at": 2.5, "version": 4, "rsds_version": 3,
        "user_meta": {"k": 1},
    }
    assert set(values) == {f.name for f in dataclasses.fields(ObjectMeta)}
    meta = ObjectMeta(**values)
    clone = meta.copy()
    assert clone == meta and clone is not meta
    assert clone.user_meta is not meta.user_meta


def test_list_objects_sorted(env):
    kernel, store = env

    def scenario():
        for name in ["zeta", "alpha", "mid"]:
            yield from store.put("b", name, None, size=1)
        names = yield from store.list_objects("b")
        return names

    assert run(kernel, scenario()) == ["alpha", "mid", "zeta"]


def test_latency_scales_with_size(env):
    kernel, store = env
    store.rng = None

    def scenario():
        t0 = kernel.now
        yield from store.put("b", "small", None, size=1024)
        t1 = kernel.now
        yield from store.put("b", "large", None, size=50 * 1024 * 1024)
        t2 = kernel.now
        return t1 - t0, t2 - t1

    small, large = run(kernel, scenario())
    assert large > small * 2


def test_redis_profile_is_much_faster_than_swift():
    kernel = Kernel()
    swift = ObjectStore(kernel, profile=SWIFT_PROFILE)
    redis = ObjectStore(kernel, profile=REDIS_PROFILE)
    swift.rng = redis.rng = None
    for store in (swift, redis):
        store.create_bucket("b")

    def timed(store):
        t0 = kernel.now
        yield from store.put("b", "o", None, size=16 * 1024)
        obj = yield from store.get("b", "o")
        assert obj is not None
        return kernel.now - t0

    swift_time = kernel.run_process(timed(swift))
    redis_time = kernel.run_process(timed(redis))
    assert swift_time > 20 * redis_time


def test_read_hook_runs_on_external_get_only(env):
    kernel, store = env
    calls = []

    def hook(op, meta):
        calls.append((op, meta.name))
        yield kernel.timeout(0.5)

    store.register_read_hook(hook)

    def scenario():
        yield from store.put("b", "o", "x", size=1)
        yield from store.get("b", "o", internal=True)
        assert calls == []
        t0 = kernel.now
        yield from store.get("b", "o")
        return kernel.now - t0

    elapsed = run(kernel, scenario())
    assert calls == [("read", "o")]
    assert elapsed >= 0.5  # the hook blocked the GET


def test_write_hook_runs_on_external_overwrite_and_delete(env):
    kernel, store = env
    calls = []

    def hook(op, meta):
        calls.append(op)
        return
        yield  # pragma: no cover - makes this a generator function

    store.register_write_hook(hook)

    def scenario():
        yield from store.put("b", "o", "x", size=1)  # create: no hook
        yield from store.put("b", "o", "y", size=1)  # overwrite: hook
        yield from store.put("b", "o", "z", size=1, internal=True)  # no hook
        yield from store.delete("b", "o")  # hook

    run(kernel, scenario())
    assert calls == ["write", "delete"]


def test_stats_accounting(env):
    kernel, store = env

    def scenario():
        yield from store.put("b", "o", "x", size=100)
        yield from store.get("b", "o")
        yield from store.get("b", "o")
        yield from store.stat("b", "o")
        yield from store.delete("b", "o")

    run(kernel, scenario())
    snap = store.stats.snapshot()
    assert snap["puts"] == 1
    assert snap["gets"] == 2
    assert snap["bytes_read"] == 200
    assert snap["bytes_written"] == 100
    assert snap["deletes"] == 1
    assert snap["stats_ops"] == 1


def test_concurrency_limit_queues_requests():
    kernel = Kernel()
    store = ObjectStore(kernel, profile=SWIFT_PROFILE, concurrency=1)
    store.rng = None
    store.create_bucket("b")
    done = []

    def writer(name):
        yield from store.put("b", name, None, size=0)
        done.append(kernel.now)

    kernel.process(writer("a"))
    kernel.process(writer("b"))
    kernel.run()
    assert done[1] == pytest.approx(2 * done[0], rel=0.01)


def test_object_count(env):
    kernel, store = env

    def scenario():
        yield from store.put("b", "x", None, size=1)
        yield from store.put("b", "y", None, size=1)

    run(kernel, scenario())
    assert store.object_count("b") == 2
    assert store.object_count() == 2
