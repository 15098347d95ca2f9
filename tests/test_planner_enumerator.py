"""Unit tests for plan enumeration."""

import pytest

from repro.errors import PlanningError
from repro.planner.enumerator import EnumeratorConfig, PlanEnumerator
from repro.planner.plan import PlanKind
from repro.structures.cached_index import CachedIndex
from repro.workload.query import Predicate, PredicateKind, QueryTemplate


@pytest.fixture
def candidate_indexes():
    return (
        CachedIndex("lineitem", ("l_shipdate",)),
        CachedIndex("lineitem", ("l_shipmode",)),
        CachedIndex("lineitem", ("l_quantity", "l_shipmode")),
        CachedIndex("lineitem", ("l_orderkey",)),
    )


@pytest.fixture
def enumerator(execution_model, candidate_indexes):
    return PlanEnumerator(execution_model, candidate_indexes=candidate_indexes)


class TestEnumeration:
    def test_backend_plan_always_offered(self, enumerator, sample_query):
        plans = enumerator.enumerate(sample_query())
        assert sum(1 for plan in plans if plan.kind is PlanKind.BACKEND) == 1

    def test_column_scan_offered_per_node_count(self, enumerator, sample_query):
        plans = enumerator.enumerate(sample_query())
        column_plans = [p for p in plans if p.kind is PlanKind.CACHE_COLUMN_SCAN]
        node_counts = sorted(p.node_count for p in column_plans)
        assert node_counts == [1, 2, 3]  # default max_extra_nodes = 2

    def test_index_plans_only_for_matching_indexes(self, enumerator, sample_query):
        query = sample_query("q6_forecast_revenue")  # predicates on shipdate/discount/quantity
        plans = enumerator.enumerate(query)
        index_plans = [p for p in plans if p.kind is PlanKind.CACHE_INDEX]
        used = {p.index.key for p in index_plans}
        assert "index:lineitem(l_shipdate)" in used
        assert "index:lineitem(l_orderkey)" not in used  # not predicated by Q6

    def test_multi_node_plans_carry_cpu_node_structures(self, enumerator, sample_query):
        plans = enumerator.enumerate(sample_query())
        three_node = [p for p in plans
                      if p.kind is PlanKind.CACHE_COLUMN_SCAN and p.node_count == 3]
        assert len(three_node) == 1
        node_keys = {s.key for s in three_node[0].cpu_nodes}
        assert node_keys == {"cpu_node:1", "cpu_node:2"}

    def test_cache_plans_require_touched_columns(self, enumerator, sample_query):
        query = sample_query("q14_promotion_effect")
        plans = enumerator.enumerate(query)
        for plan in plans:
            if plan.kind is PlanKind.BACKEND:
                continue
            keys = plan.structure_keys
            for column in query.touched_columns:
                assert f"column:lineitem.{column}" in keys

    def test_faster_plans_exist_with_more_nodes(self, enumerator, sample_query):
        plans = enumerator.enumerate(sample_query())
        column_plans = {p.node_count: p for p in plans
                        if p.kind is PlanKind.CACHE_COLUMN_SCAN}
        assert column_plans[3].response_time_s < column_plans[1].response_time_s


    def test_plan_order_is_pinned(self, enumerator, sample_query):
        """Back-end first, then per node count: the scan, then the indexes.

        Skyline and ``min()`` tie-breaks depend on this order.
        """
        query = sample_query("q6_forecast_revenue")
        plans = enumerator.enumerate(query)
        shipdate = "index:lineitem(l_shipdate)"
        quantity = "index:lineitem(l_quantity,l_shipmode)"
        expected = [(PlanKind.BACKEND, 1, None)]
        for node_count in (1, 2, 3):
            expected += [
                (PlanKind.CACHE_COLUMN_SCAN, node_count, None),
                (PlanKind.CACHE_INDEX, node_count, shipdate),
                (PlanKind.CACHE_INDEX, node_count, quantity),
            ]
        assert [(plan.kind, plan.node_count,
                 plan.index.key if plan.index is not None else None)
                for plan in plans] == expected

    def test_plans_carry_the_cost_model_estimates(self, enumerator,
                                                  execution_model,
                                                  sample_query):
        query = sample_query("q6_forecast_revenue")
        for plan in enumerator.enumerate(query):
            if plan.kind is PlanKind.BACKEND:
                expected = execution_model.backend_execution(query)
            else:
                expected = execution_model.cache_execution(
                    query, index=plan.index, node_count=plan.node_count
                )
            assert plan.execution == expected


class TestConfiguration:
    def test_disallowing_indexes_removes_index_plans(self, execution_model,
                                                     candidate_indexes, sample_query):
        enumerator = PlanEnumerator(
            execution_model, candidate_indexes,
            config=EnumeratorConfig(allow_index_plans=False),
        )
        plans = enumerator.enumerate(sample_query())
        assert all(plan.kind is not PlanKind.CACHE_INDEX for plan in plans)

    def test_zero_extra_nodes_keeps_single_node_plans(self, execution_model, sample_query):
        enumerator = PlanEnumerator(
            execution_model, config=EnumeratorConfig(max_extra_nodes=0),
        )
        plans = enumerator.enumerate(sample_query())
        assert all(plan.node_count == 1 for plan in plans)

    def test_disallowing_backend_plan(self, execution_model, sample_query):
        enumerator = PlanEnumerator(
            execution_model, config=EnumeratorConfig(allow_backend_plan=False),
        )
        plans = enumerator.enumerate(sample_query())
        assert all(plan.kind is not PlanKind.BACKEND for plan in plans)

    def test_per_query_index_cap(self, execution_model, candidate_indexes, sample_query):
        enumerator = PlanEnumerator(
            execution_model, candidate_indexes,
            config=EnumeratorConfig(max_candidate_indexes_per_query=1,
                                    max_extra_nodes=0),
        )
        plans = enumerator.enumerate(sample_query("q6_forecast_revenue"))
        index_plans = [p for p in plans if p.kind is PlanKind.CACHE_INDEX]
        assert len(index_plans) == 1

    def test_invalid_config_rejected(self):
        with pytest.raises(PlanningError):
            EnumeratorConfig(max_extra_nodes=-1)
        with pytest.raises(PlanningError):
            EnumeratorConfig(max_candidate_indexes_per_query=-1)


class TestMemoInvalidation:
    def test_generation_counts_invalidations(self, enumerator):
        assert enumerator.generation == 0
        assert enumerator.invalidate() == 1
        assert enumerator.invalidate() == 2
        assert enumerator.generation == 2

    def test_invalidate_refreshes_stale_template_name_reuse(self, execution_model):
        # Two different template shapes sharing one name, as happens when a
        # new catalog or workload reuses template names against a live
        # enumerator.
        before = QueryTemplate(
            name="reused_name", table_name="lineitem",
            predicates=(Predicate("lineitem", "l_shipdate",
                                  PredicateKind.RANGE, 0.1),),
            projection_columns=("l_quantity",),
        )
        after = QueryTemplate(
            name="reused_name", table_name="lineitem",
            predicates=(Predicate("lineitem", "l_shipmode",
                                  PredicateKind.EQUALITY, 0.2),),
            projection_columns=("l_discount",),
        )
        enumerator = PlanEnumerator(execution_model)

        def scan_keys(query_id, template):
            query = template.instantiate(query_id=query_id, arrival_time=0.0)
            plans = enumerator.enumerate(query)
            scan = next(p for p in plans
                        if p.kind is PlanKind.CACHE_COLUMN_SCAN)
            return scan.structure_keys

        assert "column:lineitem.l_shipdate" in scan_keys(0, before)

        # Regression: without invalidation the memo keyed on the bare name
        # serves the old template's column set to the new shape.
        stale = scan_keys(1, after)
        assert "column:lineitem.l_shipmode" not in stale
        assert "column:lineitem.l_shipdate" in stale

        enumerator.invalidate()
        fresh = scan_keys(2, after)
        assert "column:lineitem.l_shipmode" in fresh
        assert "column:lineitem.l_shipdate" not in fresh
