"""Unit tests for the TPC-H-like catalog builder."""

import pytest

from repro import constants
from repro.catalog.tpch import (
    TPCH_TABLE_SPECS,
    build_tpch_schema,
    scale_factor_for_bytes,
)
from repro.errors import SchemaError


class TestSpecs:
    def test_eight_tables_defined(self):
        assert len(TPCH_TABLE_SPECS) == 8
        names = {spec.name for spec in TPCH_TABLE_SPECS}
        assert {"lineitem", "orders", "customer", "part", "partsupp",
                "supplier", "nation", "region"} == names

    def test_lineitem_dominates_row_budget(self):
        by_name = {spec.name: spec for spec in TPCH_TABLE_SPECS}
        assert by_name["lineitem"].rows_per_scale_factor == 6_000_000
        assert by_name["orders"].rows_per_scale_factor == 1_500_000

    def test_fixed_tables_ignore_scale(self):
        by_name = {spec.name: spec for spec in TPCH_TABLE_SPECS}
        assert by_name["nation"].row_count(100.0) == 25
        assert by_name["region"].row_count(0.5) == 5


class TestScaleFactor:
    def test_scale_factor_hits_target_size(self):
        target = constants.BACKEND_DATABASE_BYTES
        schema = build_tpch_schema(target_bytes=target)
        assert schema.total_size_bytes == pytest.approx(target, rel=0.01)

    def test_small_targets_work(self):
        schema = build_tpch_schema(target_bytes=10 * constants.GB)
        assert schema.total_size_bytes == pytest.approx(10 * constants.GB, rel=0.05)

    def test_explicit_scale_factor_overrides_target(self):
        schema = build_tpch_schema(target_bytes=1, scale_factor=1.0)
        lineitem = schema.table("lineitem")
        assert lineitem.row_count == 6_000_000

    def test_rejects_non_positive_target(self):
        with pytest.raises(SchemaError):
            scale_factor_for_bytes(0)

    def test_rejects_non_positive_scale(self):
        with pytest.raises(SchemaError):
            build_tpch_schema(scale_factor=-1.0)


class TestBuiltSchema:
    def test_lineitem_is_the_largest_table(self, schema):
        largest = max(schema.tables(), key=lambda table: table.size_bytes)
        assert largest.name == "lineitem"

    def test_low_cardinality_columns_have_absolute_distinct_counts(self, schema):
        lineitem = schema.table("lineitem")
        shipmode = lineitem.column("l_shipmode")
        # 7 ship modes regardless of scale.
        assert shipmode.distinct_fraction * lineitem.row_count == pytest.approx(7, rel=0.01)
        returnflag = lineitem.column("l_returnflag")
        assert returnflag.distinct_fraction * lineitem.row_count == pytest.approx(3, rel=0.01)

    def test_key_columns_stay_fully_distinct(self, schema):
        orders = schema.table("orders")
        assert orders.column("o_orderkey").distinct_fraction == pytest.approx(1.0)

    def test_all_paper_template_columns_exist(self, schema, all_templates):
        for template in all_templates:
            table = schema.table(template.table_name)
            for column_name in template.touched_columns:
                table.column(column_name)
            for predicate in template.predicates:
                schema.column(predicate.table_name, predicate.column_name)
            for join_table in template.join_tables:
                schema.table(join_table)

    def test_total_size_is_two_and_a_half_terabytes(self, schema):
        assert schema.total_size_bytes == pytest.approx(2.5e12, rel=0.01)
