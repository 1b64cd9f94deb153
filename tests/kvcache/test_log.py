"""Unit and property tests for the log-structured memory."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvcache.errors import CacheError
from repro.kvcache.log import ObjectLog, SEGMENT_SIZE


def test_append_and_contains():
    log = ObjectLog()
    log.append("a", 100)
    assert "a" in log
    assert len(log) == 1
    assert log.live_bytes == 100


def test_footprint_is_segment_granular():
    log = ObjectLog()
    log.append("a", 100)
    assert log.footprint_bytes == SEGMENT_SIZE


def test_append_overflows_to_new_segment():
    log = ObjectLog()
    log.append("a", SEGMENT_SIZE - 10)
    log.append("b", 100)
    assert log.segment_count == 2


def test_jumbo_entry_gets_dedicated_segment():
    log = ObjectLog()
    log.append("big", SEGMENT_SIZE * 2)
    # The dedicated jumbo segment is charged; the untouched head is not.
    assert log.footprint_bytes == SEGMENT_SIZE * 2
    assert log.live_bytes == SEGMENT_SIZE * 2
    assert log.segment_count == 2


def test_delete_marks_dead_and_returns_size():
    log = ObjectLog()
    log.append("a", 500)
    assert log.delete("a") == 500
    assert "a" not in log
    assert log.live_bytes == 0
    # Head segment is retained even when fully dead.
    assert log.footprint_bytes == SEGMENT_SIZE


def test_delete_missing_raises():
    log = ObjectLog()
    with pytest.raises(CacheError):
        log.delete("ghost")


def test_reappend_same_key_replaces():
    log = ObjectLog()
    log.append("a", 100)
    log.append("a", 300)
    assert log.live_bytes == 300
    assert len(log) == 1


def test_fully_dead_closed_segment_freed_immediately():
    log = ObjectLog()
    log.append("a", SEGMENT_SIZE - 10)  # fills segment 1
    log.append("b", 100)  # opens segment 2 (head)
    assert log.segment_count == 2
    log.delete("a")
    assert log.segment_count == 1
    assert log.stats.segments_freed == 1


def test_clean_compacts_sparse_segments():
    log = ObjectLog()
    # Fill two closed segments each with many entries, then kill most.
    keys = []
    for i in range(40):
        key = f"k{i}"
        log.append(key, SEGMENT_SIZE // 10)
        keys.append(key)
    before = log.footprint_bytes
    for key in keys[::2]:
        log.delete(key)
    freed, relocated = log.clean()
    assert freed > 0
    assert relocated > 0
    assert log.footprint_bytes < before
    # All surviving keys still present.
    for key in keys[1::2]:
        assert key in log


def test_clean_ignores_head_segment():
    log = ObjectLog()
    log.append("a", 10)
    freed, relocated = log.clean()
    assert freed == 0
    assert relocated == 0
    assert "a" in log


def test_negative_size_rejected():
    log = ObjectLog()
    with pytest.raises(CacheError):
        log.append("a", -1)


def test_invalid_segment_size_rejected():
    with pytest.raises(CacheError):
        ObjectLog(segment_size=0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["put", "del"]),
            st.integers(min_value=0, max_value=20),
            st.integers(min_value=1, max_value=SEGMENT_SIZE * 2),
        ),
        max_size=80,
    )
)
def test_log_invariants_under_random_ops(ops):
    """live_bytes always equals the sum of present entries; footprint is
    always >= live bytes; cleaning never loses an entry."""
    log = ObjectLog()
    model = {}
    for op, key_id, size in ops:
        key = f"k{key_id}"
        if op == "put":
            log.append(key, size)
            model[key] = size
        elif key in model:
            assert log.delete(key) == model.pop(key)
    assert log.live_bytes == sum(model.values())
    assert log.footprint_bytes >= log.live_bytes
    log.clean()
    assert set(log.keys()) == set(model)
    assert log.live_bytes == sum(model.values())


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.integers(min_value=1, max_value=SEGMENT_SIZE // 4),
        min_size=1,
        max_size=60,
    )
)
def test_clean_after_mass_delete_reclaims_everything(sizes):
    log = ObjectLog()
    for i, size in enumerate(sizes):
        log.append(f"k{i}", size)
    for i in range(len(sizes)):
        log.delete(f"k{i}")
    log.clean()
    assert log.live_bytes == 0
    # Only the head segment may remain allocated.
    assert log.footprint_bytes <= SEGMENT_SIZE
