"""Tests for per-tenant cache accounting and its quota rule."""

import pytest

from repro.core.tenancy import jain_index, TenantCacheAccounting

GB = 1 << 30


# -- Jain's index ---------------------------------------------------------


def test_jain_index_equal_is_one():
    assert jain_index([0.5, 0.5, 0.5]) == pytest.approx(1.0)


def test_jain_index_single_winner_is_one_over_n():
    assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)


def test_jain_index_empty_and_all_zero_are_fair():
    assert jain_index([]) == 1.0
    assert jain_index([0.0, 0.0]) == 1.0


def test_jain_index_bounds():
    values = [0.9, 0.1, 0.4, 0.0, 0.7]
    index = jain_index(values)
    assert 1.0 / len(values) <= index <= 1.0


# -- policies -------------------------------------------------------------


def test_policy_factory():
    for name in ("none", "static", "proportional"):
        assert TenantCacheAccounting(name).policy == name
    with pytest.raises(ValueError):
        TenantCacheAccounting("lottery")


def test_none_policy_never_limits_or_rejects():
    acct = TenantCacheAccounting("none")
    assert acct.limit_for("a", GB) is None
    assert acct.admit("a", 10 * GB, GB)
    assert not acct.over_quota("a", GB)
    assert acct.rejected == {}


def test_static_policy_enforces_fixed_fraction():
    acct = TenantCacheAccounting("static", static_fraction=0.1)
    assert acct.limit_for("a", GB) == pytest.approx(GB * 0.1)
    # Under the limit: admitted.
    assert acct.admit("a", int(GB * 0.05), GB)
    acct.on_object_admitted("a", int(GB * 0.09))
    # Would push past the limit: rejected and counted.
    assert not acct.admit("a", int(GB * 0.02), GB)
    assert acct.rejected["a"] == 1
    with pytest.raises(ValueError):
        TenantCacheAccounting("static", static_fraction=0.0)


def test_proportional_policy_tracks_demand_with_floor():
    acct = TenantCacheAccounting("proportional")
    # No demand yet: everybody gets the equal split.
    assert acct.limit_for("a", GB) == pytest.approx(GB)
    acct.record_miss("hot", 900)
    acct.record_miss("cold", 100)
    equal_share = GB / 2
    assert acct.limit_for("hot", GB) == pytest.approx(GB * 0.9)
    # The cold tenant's 10% share is floored at half the equal split.
    assert acct.limit_for("cold", GB) == pytest.approx(0.5 * equal_share)


# -- accounting lifecycle -------------------------------------------------


class _Obj:
    def __init__(self, tenant, size):
        self.flags = {"tenant": tenant} if tenant else {}
        self.size = size


def test_usage_hooks_and_hit_ratios():
    acct = TenantCacheAccounting()
    acct.on_object_admitted("a", 100)
    acct.on_object_admitted("a", 50)
    acct.on_object_removed("a", 100)
    assert acct.usage_bytes["a"] == 50
    acct.on_object_removed("a", 60)  # over-removal clamps to empty
    assert "a" not in acct.usage_bytes
    acct.on_object_admitted("", 10)  # untagged objects are ignored
    assert acct.usage_bytes == {}

    acct.record_hit("a", 10)
    acct.record_hit("a", 10)
    acct.record_miss("a", 10)
    acct.record_miss("b", 10)
    assert acct.hit_ratio("a") == pytest.approx(2 / 3)
    assert acct.hit_ratio("b") == 0.0
    assert acct.hit_ratio("never-seen") is None
    assert set(acct.hit_ratios()) == {"a", "b"}
    assert 0.0 < acct.fairness_index() <= 1.0


def test_reset_counters_keeps_usage_and_demand():
    acct = TenantCacheAccounting()
    acct.on_object_admitted("a", 100)
    acct.record_miss("a", 100)
    acct.reset_counters()
    assert acct.hits == {} and acct.misses == {}
    assert acct.usage_bytes["a"] == 100
    assert acct.demand_bytes["a"] == 100


def test_resync_recomputes_usage_and_decays_demand():
    acct = TenantCacheAccounting()
    acct.on_object_admitted("stale", 500)
    acct.record_miss("a", 100)
    acct.resync([_Obj("a", 40), _Obj("a", 10), _Obj(None, 99)])
    assert acct.usage_bytes == {"a": 50.0}
    assert acct.demand_bytes["a"] == pytest.approx(50.0)
    # decay=False leaves the demand untouched (only one node per
    # period applies the EWMA step).
    acct.resync([_Obj("a", 40)], decay=False)
    assert acct.demand_bytes["a"] == pytest.approx(50.0)
    # Repeated decay eventually drops the tenant entirely (< 1 byte).
    for _ in range(10):
        acct.resync([], decay=True)
    assert acct.demand_bytes == {}
    assert acct.total_demand_bytes == 0.0


def test_snapshot_is_flat_and_complete():
    acct = TenantCacheAccounting("static", static_fraction=0.5)
    acct.record_hit("a", 10)
    acct.record_miss("a", 10)
    acct.on_object_admitted("a", 10)
    snap = acct.snapshot()
    assert snap["policy"] == "static"
    assert snap["tenants_seen"] == 1
    assert snap["total_hits"] == 1
    assert snap["total_misses"] == 1
    assert snap["admissions"] == 1
    assert snap["usage_bytes"] == 10
    assert 0.0 <= snap["fairness_index"] <= 1.0
