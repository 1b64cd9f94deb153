"""End-state invariants on a small settled deployment.

``check_end_state`` reads the deployment directly: the RSDS and the
cache hold payload objects, and a write counts as durable only when one
of them holds the very object an admissible write sent (``is``, never
equality).  Each case builds the state by hand on a four-node OFC
deployment and a synthetic history, and holds the result to the
pre-rewrite checker as well.
"""

from repro.checks import OpRecord
from repro.checks.invariants import check_end_state
from repro.core import OFCPlatform
from repro.faas.platform import PlatformConfig
from tests.checks import reference_invariants as reference


def deployment():
    ofc = OFCPlatform(platform_config=PlatformConfig(node_memory_mb=4096), seed=3)
    ofc.store.create_bucket("b")
    ofc.start()
    return ofc


def drive(ofc, gen):
    return ofc.kernel.run_until(ofc.kernel.process(gen))


def store(ofc, key, payload):
    drive(ofc, ofc.store.put("b", key.partition("/")[2], payload, 100))


def cache(ofc, key, payload, **flags):
    drive(ofc, ofc.backend.put(key, payload, 100, "w0", flags=flags))


def W(seq, t0, t1, payload, key="b/k", intermediate=False):
    return OpRecord(
        seq=seq, op="write", key=key, t_start=t0, t_ack=t1, payload=payload,
        size=100, intermediate=intermediate,
    )


def D(seq, t0, t1, key="b/k"):
    return OpRecord(seq=seq, op="delete", key=key, t_start=t0, t_ack=t1)


def verdict(ops, ofc):
    violations = check_end_state(ops, ofc)
    assert violations == reference.check_end_state(ops, ofc)
    return [(v.invariant, v.key) for v in violations]


def test_durable_in_the_rsds_by_payload_identity():
    ofc = deployment()
    payload = bytearray(b"out")
    store(ofc, "b/k", payload)
    assert verdict([W(1, 0.0, 1.0, payload)], ofc) == []
    # An equal but distinct object is not the acked write.
    store(ofc, "b/k", bytearray(b"out"))
    assert verdict([W(1, 0.0, 1.0, payload)], ofc) == [("durability", "b/k")]


def test_a_racing_write_is_admissible_in_the_rsds():
    ofc = deployment()
    first, second = object(), object()
    store(ofc, "b/k", first)
    # The second write acked last, but the first acked after it started.
    ops = [W(1, 0.0, 3.0, first), W(2, 1.0, 4.0, second)]
    assert verdict(ops, ofc) == []
    # Acked before the last write started: superseded, so lost.
    ops = [W(1, 0.0, 0.5, first), W(2, 1.0, 4.0, second)]
    assert verdict(ops, ofc) == [("durability", "b/k")]


def test_present_only_in_the_cache_is_durable():
    ofc = deployment()
    payload = object()
    cache(ofc, "b/k", payload)
    assert not ofc.store.contains("b", "k")
    assert verdict([W(1, 0.0, 1.0, payload)], ofc) == []


def test_in_neither_the_rsds_nor_the_cache_is_lost():
    ofc = deployment()
    ops = [W(7, 0.0, 1.25, object())]
    assert verdict(ops, ofc) == [("durability", "b/k")]
    (violation,) = check_end_state(ops, ofc)
    assert (violation.t, violation.seq) == (ofc.kernel.now, 7)
    assert violation.detail == (
        "acked write at t=1.250 is in neither the RSDS nor the cache"
    )


def test_intermediate_write_is_skipped():
    ofc = deployment()
    assert verdict([W(1, 0.0, 1.0, object(), intermediate=True)], ofc) == []
    # Only the last acked write counts: a final write after it is judged.
    ops = [W(1, 0.0, 1.0, object(), intermediate=True), W(2, 2.0, 3.0, object())]
    assert verdict(ops, ofc) == [("durability", "b/k")]


def test_delete_after_the_last_write_is_skipped():
    ofc = deployment()
    assert verdict([W(1, 0.0, 1.0, object()), D(2, 2.0, 3.0)], ofc) == []
    # A delete acked once the write had started races it: skipped too.
    assert verdict([W(1, 1.0, 4.0, object()), D(2, 0.0, 1.0)], ofc) == []
    # A delete acked before the write started does not excuse it.
    ops = [D(1, 0.0, 0.5), W(2, 1.0, 2.0, object())]
    assert verdict(ops, ofc) == [("durability", "b/k")]


def test_dirty_final_in_the_cache():
    ofc = deployment()
    payload = object()
    cache(ofc, "b/k", payload, dirty=True, final=True)
    cache(ofc, "b/clean", object(), dirty=False, final=True)
    cache(ofc, "b/scratch", object(), dirty=True, final=False)
    assert verdict([W(1, 0.0, 1.0, payload)], ofc) == [("dirty-final", "b/k")]


def test_replication_audited_only_with_every_node_live():
    ofc = deployment()
    cache(ofc, "b/k", object())
    ofc.backend._mark_under_replicated("b/k")
    assert verdict([], ofc) == [("replication", "*")]
    ofc.backend.crash("w1")
    assert verdict([], ofc) == []
