"""Tests for structure partitioning and template-affinity query routing."""

import pytest

from repro.distcache import QueryRouter, StructurePartitioner
from repro.errors import DistCacheError


class TestStructurePartitioner:
    def test_stable_and_in_range(self):
        partitioner = StructurePartitioner(partition_count=4)
        key = "column:lineitem.l_quantity"
        assert 0 <= partitioner.partition_of(key) < 4
        assert partitioner.partition_of(key) == StructurePartitioner(
            4).partition_of(key)

    def test_owns_is_exclusive(self):
        partitioner = StructurePartitioner(partition_count=3)
        key = "index:lineitem(l_shipdate)"
        owners = [p for p in range(3) if partitioner.owns(p, key)]
        assert owners == [partitioner.partition_of(key)]

    def test_single_partition_owns_everything(self):
        partitioner = StructurePartitioner(partition_count=1)
        assert partitioner.partition_of("anything") == 0
        assert partitioner.owns(0, "anything")

    def test_invalid_configuration_rejected(self):
        with pytest.raises(DistCacheError):
            StructurePartitioner(partition_count=0)
        with pytest.raises(DistCacheError):
            StructurePartitioner(2).partition_of("")
        with pytest.raises(DistCacheError):
            StructurePartitioner(2).validate_index(2)

    def test_picklable(self):
        import pickle
        partitioner = StructurePartitioner(partition_count=6)
        clone = pickle.loads(pickle.dumps(partitioner))
        assert clone == partitioner
        assert clone.partition_of("k") == partitioner.partition_of("k")


class TestQueryRouter:
    def test_routes_by_template(self, sample_query):
        router = QueryRouter(partition_count=4)
        a = sample_query("q6_forecast_revenue", query_id=1)
        b = sample_query("q6_forecast_revenue", query_id=2)
        assert router.partition_of(a) == router.partition_of(b)

    def test_split_partitions_every_query_once(self, sample_query):
        queries = [sample_query("q6_forecast_revenue", query_id=i)
                   for i in range(4)]
        queries += [sample_query("q1_pricing_summary", query_id=i + 4)
                    for i in range(4)]
        parts = QueryRouter(partition_count=3).split(queries)
        flattened = sorted(q.query_id for part in parts for q in part)
        assert flattened == list(range(8))

    def test_split_preserves_arrival_order(self, sample_query):
        queries = [sample_query("q6_forecast_revenue", query_id=i,
                                arrival_time=float(i)) for i in range(5)]
        parts = QueryRouter(partition_count=2).split(queries)
        for part in parts:
            ids = [q.query_id for q in part]
            assert ids == sorted(ids)

    def test_invalid_count_rejected(self):
        with pytest.raises(DistCacheError):
            QueryRouter(partition_count=0)

    def test_router_and_partitioner_share_the_hash(self, sample_query):
        """A template name routed as a query and placed as a key agree —
        both layers sit on repro.partitioning."""
        query = sample_query("q6_forecast_revenue")
        assert (QueryRouter(8).partition_of(query)
                == StructurePartitioner(8).partition_of("q6_forecast_revenue"))


class TestOwnershipMemo:
    def test_each_key_is_hashed_once(self, monkeypatch, sample_query):
        from repro.distcache import partition as partition_module
        calls = []
        digest = partition_module.partition_index

        def counting(key, count):
            calls.append(key)
            return digest(key, count)

        monkeypatch.setattr(partition_module, "partition_index", counting)
        partitioner = StructurePartitioner(partition_count=3)
        router = QueryRouter(partition_count=3)
        query = sample_query("q6_forecast_revenue", query_id=1)
        owners = {partitioner.partition_of("k") for _ in range(5)}
        routes = {router.partition_of(query) for _ in range(5)}
        assert calls == ["k", "q6_forecast_revenue"]
        assert owners == {digest("k", 3)}
        assert routes == {digest("q6_forecast_revenue", 3)}

    def test_overrides_are_memoized_per_partitioner(self):
        base = StructurePartitioner(partition_count=2)
        key = "column:lineitem.l_quantity"
        owner = base.partition_of(key)
        moved = base.with_overrides({key: 1 - owner})
        assert moved.partition_of(key) == 1 - owner
        assert base.partition_of(key) == owner
        assert moved.with_overrides({key: owner}).partition_of(key) == owner
