"""Unit tests for the analytic schema objects."""

import pytest

from repro.catalog.schema import Column, Index, Schema, Table
from repro.errors import SchemaError, UnknownColumnError, UnknownTableError


def make_table(name="events", rows=1_000):
    return Table(
        name=name,
        row_count=rows,
        columns=(
            Column(name, "id", 8, 1.0),
            Column(name, "kind", 4, 0.01),
            Column(name, "payload", 100, 0.9),
        ),
    )


class TestColumn:
    def test_qualified_name(self):
        column = Column("events", "id", 8)
        assert column.qualified_name == "events.id"

    def test_rejects_non_positive_width(self):
        with pytest.raises(SchemaError):
            Column("events", "id", 0)

    def test_rejects_bad_distinct_fraction(self):
        with pytest.raises(SchemaError):
            Column("events", "id", 8, distinct_fraction=0.0)
        with pytest.raises(SchemaError):
            Column("events", "id", 8, distinct_fraction=1.5)


class TestTable:
    def test_row_width_and_size(self):
        table = make_table()
        assert table.row_width_bytes == 112
        assert table.size_bytes == 112 * 1_000

    def test_column_lookup(self):
        table = make_table()
        assert table.column("kind").width_bytes == 4
        assert table.has_column("payload")
        assert not table.has_column("missing")

    def test_column_size(self):
        table = make_table()
        assert table.column_size_bytes("payload") == 100 * 1_000

    def test_unknown_column_raises(self):
        with pytest.raises(UnknownColumnError):
            make_table().column("missing")

    def test_rejects_duplicate_columns(self):
        with pytest.raises(SchemaError):
            Table("t", 10, (Column("t", "a", 4), Column("t", "a", 8)))

    def test_rejects_foreign_columns(self):
        with pytest.raises(SchemaError):
            Table("t", 10, (Column("other", "a", 4),))

    def test_rejects_empty_table(self):
        with pytest.raises(SchemaError):
            Table("t", 10, ())

    def test_rejects_non_positive_rows(self):
        with pytest.raises(SchemaError):
            Table("t", 0, (Column("t", "a", 4),))


class TestIndex:
    def test_size_includes_pointer_overhead(self):
        schema = Schema([make_table()])
        index = Index("idx", "events", ("kind",), pointer_bytes=8)
        assert index.size_bytes(schema) == (4 + 8) * 1_000

    def test_covers(self):
        index = Index("idx", "events", ("kind", "id"))
        assert index.covers("events", ["kind"])
        assert index.covers("events", ["id", "kind"])
        assert not index.covers("events", ["payload"])
        assert not index.covers("other", ["kind"])

    def test_rejects_duplicate_key_columns(self):
        with pytest.raises(SchemaError):
            Index("idx", "events", ("kind", "kind"))

    def test_rejects_empty_key(self):
        with pytest.raises(SchemaError):
            Index("idx", "events", ())


class TestSchema:
    def test_table_lookup_and_totals(self):
        table = make_table()
        schema = Schema([table])
        assert schema.table("events") is table
        assert schema.has_table("events")
        assert schema.total_size_bytes == table.size_bytes

    def test_unknown_table_raises(self):
        schema = Schema([make_table()])
        with pytest.raises(UnknownTableError):
            schema.table("missing")

    def test_duplicate_tables_rejected(self):
        with pytest.raises(SchemaError):
            Schema([make_table(), make_table()])

    def test_column_lookup_validates_both_names(self):
        schema = Schema([make_table()])
        assert schema.column("events", "id").width_bytes == 8
        with pytest.raises(UnknownColumnError):
            schema.column("events", "nope")

    def test_index_registration_and_lookup(self):
        schema = Schema([make_table()])
        schema.add_index(Index("idx_kind", "events", ("kind",)))
        assert schema.index_names == ["idx_kind"]
        assert schema.index("idx_kind").column_names == ("kind",)

    def test_index_on_unknown_column_rejected(self):
        schema = Schema([make_table()])
        with pytest.raises(UnknownColumnError):
            schema.add_index(Index("bad", "events", ("missing",)))

    def test_duplicate_index_rejected(self):
        schema = Schema([make_table()])
        schema.add_index(Index("idx", "events", ("kind",)))
        with pytest.raises(SchemaError):
            schema.add_index(Index("idx", "events", ("id",)))

    def test_describe_mentions_tables(self):
        text = Schema([make_table()]).describe()
        assert "events" in text
        assert "1 tables" in text
