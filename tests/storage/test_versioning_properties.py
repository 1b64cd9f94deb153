"""Property tests for the shadow-object versioning protocol (§6.2)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Kernel
from repro.storage import ObjectStore, SWIFT_PROFILE


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.sampled_from(["shadow", "persist_latest", "persist_stale", "put"]),
        min_size=1,
        max_size=25,
    )
)
def test_rsds_version_never_exceeds_version(ops):
    """Invariant: rsds_version <= version, and a successful persist of
    version v implies no older payload can overwrite it later."""
    kernel = Kernel()
    store = ObjectStore(kernel, profile=SWIFT_PROFILE)
    store.rng = None
    store.create_bucket("b")
    shadow_versions = []

    def scenario():
        for op in ops:
            if op == "shadow":
                meta = yield from store.put(
                    "b", "o", None, 100, shadow=True, internal=True
                )
                shadow_versions.append(meta.version)
            elif op == "put":
                yield from store.put("b", "o", "direct", 100, internal=True)
            elif op == "persist_latest" and shadow_versions:
                yield from store.persist_payload(
                    "b", "o", f"v{shadow_versions[-1]}", shadow_versions[-1]
                )
            elif op == "persist_stale" and len(shadow_versions) >= 2:
                yield from store.persist_payload(
                    "b", "o", f"v{shadow_versions[0]}", shadow_versions[0]
                )

    kernel.run_process(scenario())
    if store.contains("b", "o"):
        meta = store.peek_meta("b", "o")
        assert meta.rsds_version <= meta.version
        # Versions only move forward.
        assert meta.version == len(
            [op for op in ops if op in ("shadow", "put")]
        ) or meta.version >= 1


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=12))
def test_out_of_order_persists_converge_to_latest(n_versions):
    """Persistors completing in any order leave the newest payload."""
    kernel = Kernel()
    store = ObjectStore(kernel, profile=SWIFT_PROFILE)
    store.rng = None
    store.create_bucket("b")

    def scenario():
        versions = []
        for _ in range(n_versions):
            meta = yield from store.put(
                "b", "o", None, 100, shadow=True, internal=True
            )
            versions.append(meta.version)
        # Apply persists in reverse order: the stale ones must lose.
        for version in reversed(versions):
            yield from store.persist_payload("b", "o", f"v{version}", version)

    kernel.run_process(scenario())
    meta = store.peek_meta("b", "o")
    assert meta.rsds_version == n_versions
    obj = store._object("b", "o")
    assert obj.payload == f"v{n_versions}"


def test_external_put_after_shadow_clears_staleness():
    kernel = Kernel()
    store = ObjectStore(kernel, profile=SWIFT_PROFILE)
    store.rng = None
    store.create_bucket("b")

    def scenario():
        yield from store.put("b", "o", None, 100, shadow=True, internal=True)
        yield from store.put("b", "o", "external", 100)

    kernel.run_process(scenario())
    meta = store.peek_meta("b", "o")
    assert not meta.is_shadow
    assert meta.version == 2
    assert meta.rsds_version == 2
