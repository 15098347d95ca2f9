"""Unit tests for the cache manager (admission, usage, billing, eviction)."""

import pytest

from repro.cache.manager import CacheConfig, CacheManager
from repro.errors import CacheError, InsufficientSpaceError
from repro.structures.cached_column import CachedColumn
from repro.structures.cached_index import CachedIndex


def admit(manager, structure, size=100, cost=10.0, rate=0.01, now=0.0):
    return manager.admit(structure, size_bytes=size, build_cost=cost,
                         maintenance_rate=rate, now=now)


class TestAdmission:
    def test_admit_and_lookup(self):
        manager = CacheManager()
        column = CachedColumn("lineitem", "l_shipdate")
        admit(manager, column, size=500)
        assert manager.contains(column.key)
        assert manager.disk_used_bytes == 500
        assert manager.built_keys == {column.key}
        assert manager.entry(column.key).build_cost == 10.0

    def test_double_admit_rejected(self):
        manager = CacheManager()
        column = CachedColumn("lineitem", "l_shipdate")
        admit(manager, column)
        with pytest.raises(CacheError):
            admit(manager, column)

    def test_unknown_entry_raises(self):
        with pytest.raises(CacheError):
            CacheManager().entry("column:missing")

    def test_maintenance_rate_total(self):
        manager = CacheManager()
        admit(manager, CachedColumn("lineitem", "l_shipdate"), rate=0.01)
        admit(manager, CachedColumn("lineitem", "l_discount"), rate=0.02)
        assert manager.maintenance_rate_total() == pytest.approx(0.03)


class TestCapacityEviction:
    def test_lru_eviction_under_capacity(self):
        manager = CacheManager(CacheConfig(capacity_bytes=1_000))
        first = CachedColumn("lineitem", "l_shipdate")
        second = CachedColumn("lineitem", "l_discount")
        third = CachedColumn("lineitem", "l_quantity")
        admit(manager, first, size=400, now=0.0)
        admit(manager, second, size=400, now=1.0)
        manager.record_usage([first.key], now=2.0)  # second becomes LRU
        evicted = admit(manager, third, size=400, now=3.0)
        assert [record.key for record in evicted] == [second.key]
        assert manager.contains(first.key)
        assert manager.disk_used_bytes == 800

    def test_structure_larger_than_capacity_rejected(self):
        manager = CacheManager(CacheConfig(capacity_bytes=100))
        with pytest.raises(InsufficientSpaceError):
            admit(manager, CachedColumn("lineitem", "l_shipdate"), size=200)

    def test_eviction_records_are_kept(self):
        manager = CacheManager(CacheConfig(capacity_bytes=500))
        admit(manager, CachedColumn("lineitem", "l_shipdate"), size=400)
        admit(manager, CachedColumn("lineitem", "l_discount"), size=400, now=1.0)
        assert len(manager.evictions) == 1
        assert manager.evictions[0].reason == "capacity_lru"


class TestUsageAndBilling:
    def test_record_usage_updates_entry(self):
        manager = CacheManager()
        column = CachedColumn("lineitem", "l_shipdate")
        admit(manager, column, now=0.0)
        manager.record_usage([column.key], now=5.0)
        entry = manager.entry(column.key)
        assert entry.queries_served == 1
        assert entry.last_used_at == 5.0

    def test_bill_maintenance_accrues_and_resets(self):
        manager = CacheManager()
        column = CachedColumn("lineitem", "l_shipdate")
        admit(manager, column, rate=0.5, now=0.0)
        billed = manager.bill_maintenance([column.key], now=10.0)
        assert billed[column.key] == pytest.approx(5.0)
        assert manager.bill_maintenance([column.key], now=10.0)[column.key] == 0.0
        assert manager.entry(column.key).maintenance_billed == pytest.approx(5.0)

    def test_accrued_maintenance_snapshot(self):
        manager = CacheManager()
        column = CachedColumn("lineitem", "l_shipdate")
        admit(manager, column, rate=0.1, now=0.0)
        assert manager.accrued_maintenance(20.0)[column.key] == pytest.approx(2.0)

    def test_record_amortized_recovery(self):
        manager = CacheManager()
        column = CachedColumn("lineitem", "l_shipdate")
        admit(manager, column, cost=10.0)
        manager.record_amortized_recovery(column.key, 4.0)
        assert manager.entry(column.key).unrecovered_build_cost() == pytest.approx(6.0)
        with pytest.raises(CacheError):
            manager.record_amortized_recovery(column.key, -1.0)


class TestFailureEviction:
    def test_idle_structures_fail(self):
        manager = CacheManager(CacheConfig(max_idle_s=100.0, column_idle_multiplier=1.0))
        column = CachedColumn("lineitem", "l_shipdate")
        admit(manager, column, now=0.0)
        assert manager.evict_failed_structures(now=50.0) == []
        failed = manager.evict_failed_structures(now=200.0)
        assert [record.key for record in failed] == [column.key]
        assert not manager.contains(column.key)

    def test_usage_resets_the_idle_clock(self):
        manager = CacheManager(CacheConfig(max_idle_s=100.0, column_idle_multiplier=1.0))
        column = CachedColumn("lineitem", "l_shipdate")
        admit(manager, column, now=0.0)
        manager.record_usage([column.key], now=150.0)
        assert manager.evict_failed_structures(now=200.0) == []

    def test_columns_get_a_longer_grace_period(self):
        manager = CacheManager(CacheConfig(max_idle_s=100.0, column_idle_multiplier=4.0))
        column = CachedColumn("lineitem", "l_shipdate")
        index = CachedIndex("lineitem", ("l_shipdate",))
        admit(manager, column, now=0.0)
        admit(manager, index, now=0.0)
        failed = manager.evict_failed_structures(now=200.0)
        assert [record.key for record in failed] == [index.key]
        assert manager.contains(column.key)

    def test_min_residency_protects_fresh_structures(self):
        manager = CacheManager(CacheConfig(max_idle_s=10.0, min_residency_s=1_000.0,
                                           column_idle_multiplier=1.0))
        column = CachedColumn("lineitem", "l_shipdate")
        admit(manager, column, now=0.0)
        assert manager.evict_failed_structures(now=500.0) == []

    def test_disabled_failure_rule(self):
        manager = CacheManager(CacheConfig(max_idle_s=None))
        admit(manager, CachedColumn("lineitem", "l_shipdate"), now=0.0)
        assert manager.evict_failed_structures(now=1e9) == []

    def test_explicit_eviction_reports_unrecovered_cost(self):
        manager = CacheManager()
        column = CachedColumn("lineitem", "l_shipdate")
        admit(manager, column, cost=10.0, rate=0.1, now=0.0)
        manager.record_amortized_recovery(column.key, 3.0)
        record = manager.evict(column.key, now=10.0, reason="test")
        assert record.unrecovered_build_cost == pytest.approx(7.0)
        assert record.unpaid_maintenance == pytest.approx(1.0)
        assert record.reason == "test"


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"capacity_bytes": 0},
        {"max_idle_s": 0.0},
        {"column_idle_multiplier": 0.5},
        {"min_residency_s": -1.0},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(CacheError):
            CacheConfig(**kwargs)
