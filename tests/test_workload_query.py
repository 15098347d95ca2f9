"""Unit tests for the analytic query model."""

import pytest

from repro.errors import WorkloadError
from repro.workload.query import Predicate, PredicateKind, Query, QueryTemplate
from repro.workload.templates import template_by_name


def make_template(**overrides):
    defaults = dict(
        name="probe",
        table_name="lineitem",
        predicates=(
            Predicate("lineitem", "l_shipdate", PredicateKind.RANGE, 0.1),
            Predicate("lineitem", "l_shipmode", PredicateKind.EQUALITY, 0.2),
        ),
        projection_columns=("l_extendedprice", "l_discount"),
        order_by_columns=("l_shipdate",),
        aggregation_factor=0.5,
    )
    defaults.update(overrides)
    return QueryTemplate(**defaults)


class TestPredicate:
    def test_qualified_column(self):
        predicate = Predicate("lineitem", "l_shipdate", PredicateKind.RANGE, 0.1)
        assert predicate.qualified_column == "lineitem.l_shipdate"

    def test_rejects_bad_selectivity(self):
        with pytest.raises(WorkloadError):
            Predicate("lineitem", "l_shipdate", PredicateKind.RANGE, 0.0)
        with pytest.raises(WorkloadError):
            Predicate("lineitem", "l_shipdate", PredicateKind.RANGE, 1.5)

    def test_resolved_selectivity_prefers_explicit_value(self, estimator):
        predicate = Predicate("lineitem", "l_shipmode", PredicateKind.EQUALITY, 0.25)
        assert predicate.resolved_selectivity(estimator) == 0.25

    def test_resolved_selectivity_falls_back_to_estimator(self, estimator):
        predicate = Predicate("lineitem", "l_shipmode", PredicateKind.EQUALITY)
        assert predicate.resolved_selectivity(estimator) == pytest.approx(1 / 7, rel=0.01)

    def test_with_selectivity_copies(self):
        predicate = Predicate("lineitem", "l_shipdate", PredicateKind.RANGE, 0.1)
        updated = predicate.with_selectivity(0.3)
        assert updated.selectivity == 0.3
        assert predicate.selectivity == 0.1


class TestQueryTemplate:
    def test_touched_columns_deduplicate_and_preserve_order(self):
        template = make_template()
        assert template.touched_columns == (
            "l_shipdate", "l_shipmode", "l_extendedprice", "l_discount",
        )

    def test_predicate_columns_only_include_fact_table(self):
        template = make_template(predicates=(
            Predicate("lineitem", "l_shipdate", PredicateKind.RANGE, 0.1),
            Predicate("orders", "o_orderdate", PredicateKind.RANGE, 0.2),
        ))
        assert template.predicate_columns == ("l_shipdate",)

    def test_rejects_empty_projection(self):
        with pytest.raises(WorkloadError):
            make_template(projection_columns=())

    def test_rejects_bad_aggregation(self):
        with pytest.raises(WorkloadError):
            make_template(aggregation_factor=0.0)

    def test_instantiate_applies_overrides(self):
        template = make_template()
        query = template.instantiate(
            query_id=7, arrival_time=12.0,
            selectivities={"lineitem.l_shipdate": 0.01},
            budget_scale=1.5,
        )
        assert query.query_id == 7
        assert query.arrival_time == 12.0
        assert query.budget_scale == 1.5
        by_column = {p.qualified_column: p.selectivity for p in query.predicates}
        assert by_column["lineitem.l_shipdate"] == 0.01
        assert by_column["lineitem.l_shipmode"] == 0.2


class TestQuery:
    def test_rejects_negative_ids_and_times(self):
        template = make_template()
        with pytest.raises(WorkloadError):
            template.instantiate(query_id=-1, arrival_time=0.0)
        with pytest.raises(WorkloadError):
            template.instantiate(query_id=0, arrival_time=-1.0)

    def test_result_bytes_scale_with_aggregation(self, estimator):
        template = make_template()
        heavy = template.instantiate(0, 0.0)
        light = make_template(aggregation_factor=0.05).instantiate(1, 0.0)
        assert light.result_bytes(estimator) < heavy.result_bytes(estimator)

    def test_result_bytes_positive_even_for_tiny_aggregates(self, estimator):
        query = template_by_name("q6_forecast_revenue").instantiate(0, 0.0)
        assert query.result_bytes(estimator) >= 1

    def test_scanned_bytes_includes_join_tables(self, estimator, schema):
        query = template_by_name("q14_promotion_effect").instantiate(0, 0.0)
        fact_only = estimator.scanned_bytes("lineitem", query.touched_columns)
        assert query.scanned_bytes(estimator) == fact_only + schema.table("part").size_bytes

    def test_scanned_bytes_with_column_subset(self, estimator):
        query = make_template(join_tables=()).instantiate(0, 0.0)
        subset = query.scanned_bytes(estimator, column_names=["l_shipdate"])
        full = query.scanned_bytes(estimator)
        assert subset < full

