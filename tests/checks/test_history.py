"""HistoryRecorder at the dataclient seam of a real deployment."""

import pytest

from repro.checks import HistoryRecorder
from repro.core import OFCPlatform
from repro.faas.platform import PlatformConfig
from repro.storage.errors import NoSuchObject


def make_ofc(seed=3):
    system = OFCPlatform(
        platform_config=PlatformConfig(node_memory_mb=4096), seed=seed
    )
    system.store.create_bucket("inputs")
    system.store.create_bucket("outputs")
    system.start()
    return system


def make_client(ofc, node_index=0):
    """A client through the *platform factory* — the seam the recorder
    wraps — exactly as ``platform.invoke`` builds them."""
    record_stub = type(
        "R", (), {"should_cache": True, "request": None}
    )()
    return ofc.platform.data_client_factory(
        ofc.platform.invokers[node_index], record_stub
    )


def drive(ofc, gen):
    return ofc.kernel.run_until(ofc.kernel.process(gen))


def test_recorder_captures_ops_with_payload_identity():
    ofc = make_ofc()
    recorder = HistoryRecorder(ofc)
    client = make_client(ofc)
    payload = b"the-bytes"

    def scenario():
        yield from client.write("outputs", "o", payload, 50_000)
        obj = yield from client.read("outputs", "o")
        return obj

    obj = drive(ofc, scenario())
    assert [op.op for op in recorder.ops] == ["write", "read"]
    write, read = recorder.ops
    assert write.key == "outputs/o"
    assert write.acked and write.t_ack >= write.t_start
    assert write.payload is payload
    assert write.store_version is not None  # strict mode: shadow landed
    assert read.payload is obj.payload
    assert read.status == "ok" and not read.payload_missing


def test_recorder_classifies_miss():
    ofc = make_ofc()
    recorder = HistoryRecorder(ofc)
    client = make_client(ofc)

    def scenario():
        yield from client.read("inputs", "missing")

    with pytest.raises(NoSuchObject):
        drive(ofc, scenario())
    (op,) = recorder.ops
    assert op.status == "miss"
    assert op.error == "NoSuchObject"
    assert op.t_ack is not None


def test_snapshot_and_checks_collector():
    ofc = make_ofc()
    assert ofc.obs.snapshot()["collected"]["checks"]["attached"] == 0
    recorder = HistoryRecorder(ofc)
    client = make_client(ofc)

    def scenario():
        yield from client.write("outputs", "o", b"p", 1000)
        yield from client.read("outputs", "o")
        yield from client.delete("outputs", "o")

    drive(ofc, scenario())
    collected = ofc.obs.snapshot()["collected"]["checks"]
    assert collected["attached"] == 1
    assert collected["ops"] == 3
    assert collected["reads"] == 1
    assert collected["writes"] == 1
    assert collected["deletes"] == 1
    assert collected["violations_total"] == 0


def test_detach_restores_factory():
    ofc = make_ofc()
    original = ofc.platform.data_client_factory
    recorder = HistoryRecorder(ofc)
    assert ofc.platform.data_client_factory is not original
    recorder.detach()
    assert ofc.platform.data_client_factory is original
    assert ofc.checks_recorder is None
    assert ofc.obs.snapshot()["collected"]["checks"]["attached"] == 0


def test_streamed_counters_match_history():
    """Snapshot counters are streamed (O(1)), so they must agree with a
    scan of the kept records — including failed ops."""
    ofc = make_ofc()
    recorder = HistoryRecorder(ofc)
    client = make_client(ofc)

    def scenario():
        yield from client.write("outputs", "a", b"p", 1000)
        yield from client.read("outputs", "a")
        yield from client.delete("outputs", "a")

    drive(ofc, scenario())

    def failing():
        yield from client.read("inputs", "nope")

    with pytest.raises(NoSuchObject):
        drive(ofc, failing())
    snap = recorder.snapshot()
    ops = recorder.ops
    assert snap["reads"] == sum(1 for op in ops if op.op == "read") == 2
    assert snap["writes"] == sum(1 for op in ops if op.op == "write") == 1
    assert snap["deletes"] == sum(1 for op in ops if op.op == "delete") == 1
    assert snap["ops"] == len(ops) == 4


def test_recorder_is_schedule_neutral():
    """A recorded run must be bit-identical to an unrecorded one (the
    recorder never yields and draws no randomness)."""

    def run_once(attach):
        ofc = make_ofc(seed=11)
        if attach:
            HistoryRecorder(ofc)
        client = make_client(ofc)

        def scenario():
            for i in range(5):
                yield from client.write("outputs", f"o{i}", b"p", 20_000)
                yield from client.read("outputs", f"o{i}")
            return ofc.kernel.now

        end = drive(ofc, scenario())
        return end, ofc.rclib_stats.hit_ratio

    assert run_once(False) == run_once(True)
