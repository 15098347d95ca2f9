"""Unit tests for the three cache-structure types."""

import pytest

from repro.errors import ConfigurationError
from repro.structures.base import StructureKind
from repro.structures.cached_column import CachedColumn
from repro.structures.cached_index import CachedIndex
from repro.structures.cpu_node import CpuNode


class TestCpuNode:
    def test_kind_and_key(self):
        node = CpuNode(2)
        assert node.kind is StructureKind.CPU_NODE
        assert node.key == "cpu_node:2"
        assert node.ordinal == 2

    def test_occupies_no_disk(self, schema):
        assert CpuNode(1).size_bytes(schema) == 0

    def test_rejects_non_positive_ordinal(self):
        with pytest.raises(ConfigurationError):
            CpuNode(0)


class TestCachedColumn:
    def test_kind_key_and_names(self):
        column = CachedColumn("lineitem", "l_shipdate")
        assert column.kind is StructureKind.COLUMN
        assert column.key == "column:lineitem.l_shipdate"
        assert column.qualified_name == "lineitem.l_shipdate"

    def test_size_matches_schema(self, schema):
        column = CachedColumn("lineitem", "l_shipdate")
        expected = schema.table("lineitem").column_size_bytes("l_shipdate")
        assert column.size_bytes(schema) == expected

    def test_size_validates_names(self, schema):
        with pytest.raises(Exception):
            CachedColumn("lineitem", "no_such").size_bytes(schema)


class TestCachedIndex:
    def test_kind_and_key(self):
        index = CachedIndex("lineitem", ("l_shipdate", "l_discount"))
        assert index.kind is StructureKind.INDEX
        assert index.key == "index:lineitem(l_shipdate,l_discount)"
        assert index.leading_column == "l_shipdate"

    def test_size_includes_pointer(self, schema):
        index = CachedIndex("lineitem", ("l_shipdate",), pointer_bytes=8)
        rows = schema.table("lineitem").row_count
        assert index.size_bytes(schema) == (4 + 8) * rows

    def test_required_columns(self):
        index = CachedIndex("lineitem", ("l_shipdate", "l_discount"))
        keys = [column.key for column in index.required_columns()]
        assert keys == ["column:lineitem.l_shipdate", "column:lineitem.l_discount"]

    def test_serves_predicate_on_leading_column_only(self):
        index = CachedIndex("lineitem", ("l_shipdate", "l_discount"))
        assert index.serves_predicate_on("lineitem", "l_shipdate")
        assert not index.serves_predicate_on("lineitem", "l_discount")
        assert not index.serves_predicate_on("orders", "l_shipdate")

    def test_rejects_empty_or_duplicate_keys(self):
        with pytest.raises(ConfigurationError):
            CachedIndex("lineitem", ())
        with pytest.raises(ConfigurationError):
            CachedIndex("lineitem", ("a", "a"))


class TestValueSemantics:
    def test_equality_is_by_key(self):
        assert CachedColumn("lineitem", "l_shipdate") == CachedColumn("lineitem", "l_shipdate")
        assert CachedColumn("lineitem", "l_shipdate") != CachedColumn("lineitem", "l_discount")
        assert CpuNode(1) == CpuNode(1)
        assert CpuNode(1) != CpuNode(2)

    def test_hashable_and_usable_in_sets(self):
        structures = {CachedColumn("lineitem", "l_shipdate"),
                      CachedColumn("lineitem", "l_shipdate"),
                      CpuNode(1)}
        assert len(structures) == 2

    def test_not_equal_to_other_types(self):
        assert CachedColumn("lineitem", "l_shipdate") != "column:lineitem.l_shipdate"

    def test_repr_contains_key(self):
        assert "cpu_node:3" in repr(CpuNode(3))
