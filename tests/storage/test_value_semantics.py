"""The store's records are values.

A write stores a new :class:`ObjectMeta` / :class:`StoredObject` rather
than changing the stored ones, so what ``get``, ``put`` and ``stat``
returned stays as it was after any later write of the same key, and a
GET whose transfer overlaps a write returns the object as its read
found it: old metadata with the old payload, never a mix.
"""

import dataclasses

import pytest

from repro import EMPTY
from repro.sim import Kernel
from repro.storage import ObjectStore, SWIFT_PROFILE


@pytest.fixture()
def env():
    kernel = Kernel()
    store = ObjectStore(kernel, profile=SWIFT_PROFILE)
    store.create_bucket("b")
    return kernel, store


def run(kernel, gen):
    return kernel.run_process(gen)


def fields(meta):
    """Every field of ``meta``, its tags as a plain dict."""
    return dataclasses.astuple(meta)[:-1] + (dict(meta.user_meta),)


#: The later writes of the key, and what each leaves in the store.
LATER = {
    "put": (
        lambda store: store.put("b", "o", "v3", size=30, user_meta={"k": 3}),
        lambda store: store.peek_meta("b", "o").version == 3,
    ),
    "shadow put": (
        lambda store: store.put(
            "b", "o", None, size=30, user_meta={"k": 3}, shadow=True
        ),
        lambda store: store.peek_meta("b", "o").version == 3,
    ),
    "persist_payload": (
        lambda store: store.persist_payload("b", "o", "v2", version=2),
        lambda store: not store.peek_meta("b", "o").is_shadow,
    ),
    "delete": (
        lambda store: store.delete("b", "o"),
        lambda store: not store.contains("b", "o"),
    ),
}


@pytest.mark.parametrize("later", sorted(LATER))
def test_what_a_read_returned_outlives_a_later_write(env, later):
    kernel, store = env
    write, landed = LATER[later]

    def scenario():
        yield from store.put("b", "o", "v1", size=10, user_meta={"k": 1})
        put_meta = yield from store.put(
            "b", "o", None, size=20, user_meta={"j": 2}, shadow=True
        )
        got = yield from store.get("b", "o")
        stat = yield from store.stat("b", "o")
        before = [fields(put_meta), fields(got.meta), fields(stat), got.payload]
        yield from write(store)
        after = [fields(put_meta), fields(got.meta), fields(stat), got.payload]
        return before, after

    before, after = run(kernel, scenario())
    assert landed(store)
    assert after == before
    assert before[0][6:] == (2, 1, {"k": 1, "j": 2})  # version, rsds, tags


def test_get_overlapping_a_put_returns_the_object_it_found(env):
    """A shadow PUT (a write-back's first step) lands while a 50 MB
    GET's transfer is in flight: the GET replies with the version it
    read, metadata and payload alike."""
    kernel, store = env
    run(kernel, store.put("b", "o", "old", size=50_000_000))
    reader = kernel.process(store.get("b", "o"))
    writer = kernel.process(store.put("b", "o", None, size=10, shadow=True))
    kernel.run_until(reader)
    assert writer.triggered, "the PUT must land during the GET"
    obj = reader.value
    assert (obj.payload, obj.meta.version, obj.meta.size) == ("old", 1, 50_000_000)
    assert store.peek_meta("b", "o").version == 2


def test_a_write_during_a_persist_supersedes_it(env):
    """A full PUT that lands while a persist's transfer is in flight
    keeps its own payload and stays fully persisted."""
    kernel, store = env

    def setup():
        yield from store.put("b", "o", "v1", size=10)
        yield from store.put("b", "o", None, size=10_000_000, shadow=True)

    run(kernel, setup())
    persist = kernel.process(store.persist_payload("b", "o", "v2", version=2))
    writer = kernel.process(store.put("b", "o", "v3", size=10))
    kernel.run_until(persist)
    assert writer.triggered and persist.value is True
    meta = store.peek_meta("b", "o")
    assert (meta.version, meta.rsds_version) == (3, 3)
    assert run(kernel, store.get("b", "o")).payload == "v3"


def test_tags_are_shared_not_copied(env):
    """Untagged objects share one read-only empty mapping; a tagged PUT
    keeps the mapping it is handed, and a later PUT merges into a new
    one."""
    kernel, store = env
    tags = {"k": 1}

    def scenario():
        bare = yield from store.put("b", "bare", "x", size=1)
        first = yield from store.put("b", "o", "x", size=1, user_meta=tags)
        second = yield from store.put("b", "o", "y", size=1, user_meta={"j": 2})
        return bare, first, second

    bare, first, second = run(kernel, scenario())
    assert bare.user_meta is EMPTY
    with pytest.raises(TypeError):
        EMPTY["k"] = 1  # type: ignore[index]
    assert first.user_meta is tags
    assert second.user_meta == {"k": 1, "j": 2}
    assert first.user_meta == {"k": 1}


def test_get_and_stat_return_the_stored_records(env):
    kernel, store = env

    def scenario():
        meta = yield from store.put("b", "o", "x", size=1)
        got = yield from store.get("b", "o")
        stat = yield from store.stat("b", "o")
        return meta, got, stat

    meta, got, stat = run(kernel, scenario())
    assert got.meta is meta and stat is meta
    assert store.peek_meta("b", "o") is meta
