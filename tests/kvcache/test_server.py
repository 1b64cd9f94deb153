"""Unit tests for the per-node cache server."""

import pytest

from repro.kvcache.errors import CapacityExceeded, NoSuchKey, ServerDown
from repro.kvcache.log import SEGMENT_SIZE
from repro.kvcache.objects import CacheObject
from repro.kvcache.server import CacheServer


def obj(key, size, value=None):
    return CacheObject(key=key, value=value or key, size=size)


def test_master_put_get_roundtrip():
    server = CacheServer("n0", capacity=SEGMENT_SIZE)
    server.master_put(obj("a", 100, value="data"))
    assert server.master_get("a").value == "data"
    assert server.live_bytes == 100


def test_master_get_missing_raises():
    server = CacheServer("n0", capacity=SEGMENT_SIZE)
    with pytest.raises(NoSuchKey):
        server.master_get("ghost")


def test_master_put_beyond_capacity_raises():
    server = CacheServer("n0", capacity=SEGMENT_SIZE)
    with pytest.raises(CapacityExceeded):
        server.master_put(obj("big", SEGMENT_SIZE + 1))


def test_zero_capacity_server_accepts_nothing():
    server = CacheServer("n0", capacity=0)
    with pytest.raises(CapacityExceeded):
        server.master_put(obj("a", 1))


def test_master_delete_frees_memory():
    server = CacheServer("n0", capacity=SEGMENT_SIZE)
    server.master_put(obj("a", 100))
    server.master_delete("a")
    assert server.live_bytes == 0
    assert not server.master_has("a")


def test_resize_up_then_fit_larger():
    server = CacheServer("n0", capacity=0)
    server.resize(2 * SEGMENT_SIZE)
    server.master_put(obj("a", SEGMENT_SIZE))
    assert server.master_has("a")


def test_resize_below_footprint_raises():
    server = CacheServer("n0", capacity=2 * SEGMENT_SIZE)
    server.master_put(obj("a", SEGMENT_SIZE // 2))
    with pytest.raises(CapacityExceeded):
        server.resize(0)


def test_resize_triggers_clean_first():
    server = CacheServer("n0", capacity=4 * SEGMENT_SIZE)
    # Two sparse segments; live data fits in one after cleaning.
    server.master_put(obj("a", SEGMENT_SIZE - 10))
    server.master_put(obj("b", SEGMENT_SIZE // 4))
    server.master_delete("a")
    server.resize(SEGMENT_SIZE)
    assert server.capacity == SEGMENT_SIZE
    assert server.master_has("b")


def test_backup_roundtrip():
    server = CacheServer("n0", capacity=0)
    server.backup_put(obj("a", 100))
    assert server.backup_has("a")
    assert server.backup_get("a").size == 100
    assert server.disk_used_bytes == 100
    server.backup_delete("a")
    assert not server.backup_has("a")


def test_backup_disk_capacity_enforced():
    server = CacheServer("n0", capacity=0, disk_capacity=150)
    server.backup_put(obj("a", 100))
    with pytest.raises(CapacityExceeded):
        server.backup_put(obj("b", 100))


def test_promote_moves_backup_to_master():
    server = CacheServer("n0", capacity=SEGMENT_SIZE)
    server.backup_put(obj("a", 100))
    server.promote("a")
    assert server.master_has("a")
    assert not server.backup_has("a")


def test_refused_promotion_keeps_the_backup_copy():
    server = CacheServer("n0", capacity=0)
    server.backup_put(obj("a", 100))
    with pytest.raises(CapacityExceeded):
        server.promote("a")
    assert server.backup_has("a")
    assert server.disk_used_bytes == 100
    assert not server.master_has("a")
    assert server.stats.promotions == 0


def test_demote_moves_master_to_backup():
    server = CacheServer("n0", capacity=SEGMENT_SIZE)
    server.master_put(obj("a", 100))
    server.demote("a")
    assert not server.master_has("a")
    assert server.backup_has("a")
    assert server.live_bytes == 0


def test_crash_wipes_ram_keeps_disk():
    server = CacheServer("n0", capacity=SEGMENT_SIZE)
    server.master_put(obj("a", 100))
    server.backup_put(obj("b", 200))
    server.crash()
    assert not server.up
    with pytest.raises(ServerDown):
        server.master_get("a")
    server.restart()
    assert not server.master_has("a")
    assert server.backup_has("b")
    assert server.live_bytes == 0


def test_operations_on_down_server_raise():
    server = CacheServer("n0", capacity=SEGMENT_SIZE)
    server.crash()
    with pytest.raises(ServerDown):
        server.master_put(obj("a", 1))
    with pytest.raises(ServerDown):
        server.backup_put(obj("a", 1))


def test_can_fit_accounts_for_cleanable_space():
    server = CacheServer("n0", capacity=2 * SEGMENT_SIZE)
    server.master_put(obj("a", SEGMENT_SIZE - 10))
    server.master_put(obj("b", SEGMENT_SIZE // 2))
    server.master_delete("a")
    # Footprint is 2 segments but live data is small: fits after clean.
    assert server.can_fit(SEGMENT_SIZE)
