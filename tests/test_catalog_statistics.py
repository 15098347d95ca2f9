"""Unit tests for selectivity and cardinality estimation."""

import pytest

from repro.catalog.statistics import (
    DEFAULT_RANGE_SELECTIVITY,
    MIN_SELECTIVITY,
    SelectivityEstimator,
)
from repro.errors import SchemaError, UnknownColumnError


class TestColumnStatistics:
    def test_statistics_reflect_schema(self, estimator, schema):
        stats = estimator.column_statistics("lineitem", "l_shipmode")
        assert stats.row_count == schema.table("lineitem").row_count
        assert stats.distinct_count == pytest.approx(7, abs=1)
        assert stats.width_bytes == 10

    def test_statistics_are_cached(self, estimator):
        first = estimator.column_statistics("orders", "o_orderkey")
        second = estimator.column_statistics("orders", "o_orderkey")
        assert first is second

    def test_unknown_column_raises(self, estimator):
        with pytest.raises(UnknownColumnError):
            estimator.column_statistics("lineitem", "no_such_column")


class TestSelectivities:
    def test_equality_selectivity_is_one_over_distinct(self, estimator):
        selectivity = estimator.equality_selectivity("lineitem", "l_shipmode")
        assert selectivity == pytest.approx(1.0 / 7.0, rel=0.01)

    def test_range_selectivity_default(self, estimator):
        assert estimator.range_selectivity("lineitem", "l_shipdate") == pytest.approx(
            DEFAULT_RANGE_SELECTIVITY
        )

    def test_range_selectivity_with_fraction(self, estimator):
        assert estimator.range_selectivity("lineitem", "l_shipdate", 0.1) == 0.1

    def test_range_fraction_out_of_bounds_rejected(self, estimator):
        with pytest.raises(SchemaError):
            estimator.range_selectivity("lineitem", "l_shipdate", 1.5)

    def test_conjunction_multiplies(self, estimator):
        combined = estimator.conjunction_selectivity([0.5, 0.2, 0.1])
        assert combined == pytest.approx(0.01)

    def test_conjunction_never_reaches_zero(self, estimator):
        combined = estimator.conjunction_selectivity([1e-8] * 5)
        assert combined >= MIN_SELECTIVITY

    def test_conjunction_rejects_out_of_range(self, estimator):
        with pytest.raises(SchemaError):
            estimator.conjunction_selectivity([1.2])

    def test_bad_range_default_rejected(self, schema):
        with pytest.raises(SchemaError):
            SelectivityEstimator(schema, range_selectivity=0.0)


class TestCardinalities:
    def test_output_rows_scale_with_selectivity(self, estimator, schema):
        rows = estimator.output_rows("lineitem", 0.01)
        assert rows == pytest.approx(0.01 * schema.table("lineitem").row_count, rel=0.01)

    def test_output_rows_minimum_one(self, estimator):
        assert estimator.output_rows("region", 1e-12) == 1

    def test_scanned_bytes_sums_touched_columns(self, estimator, schema):
        scanned = estimator.scanned_bytes("lineitem", ["l_orderkey", "l_shipdate"])
        expected = (schema.table("lineitem").column_size_bytes("l_orderkey")
                    + schema.table("lineitem").column_size_bytes("l_shipdate"))
        assert scanned == expected

    def test_scanned_bytes_without_columns_is_full_table(self, estimator, schema):
        assert estimator.scanned_bytes("orders", []) == schema.table("orders").size_bytes
