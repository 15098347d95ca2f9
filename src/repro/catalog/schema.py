"""Analytic schema objects: tables, columns and index definitions.

The schema is the ground truth the rest of the system consults for sizes:

* the workload generator asks for column sizes to compute result sizes,
* the cache manager accounts disk space per cached column or index,
* the cost model converts sizes into network-transfer and storage costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import SchemaError, UnknownColumnError, UnknownTableError


@dataclass(frozen=True)
class Column:
    """A column of a back-end table.

    Attributes:
        table_name: name of the owning table.
        name: column name, unique within the table.
        width_bytes: average on-disk width of one value.
        distinct_fraction: number of distinct values divided by the row count
            of the table; used by the selectivity estimator.
    """

    table_name: str
    name: str
    width_bytes: int
    distinct_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.width_bytes <= 0:
            raise SchemaError(
                f"column {self.qualified_name} must have positive width, "
                f"got {self.width_bytes}"
            )
        if not 0.0 < self.distinct_fraction <= 1.0:
            raise SchemaError(
                f"column {self.qualified_name} distinct_fraction must be in (0, 1], "
                f"got {self.distinct_fraction}"
            )

    @property
    def qualified_name(self) -> str:
        """``table.column`` name used throughout logs and structure keys."""
        return f"{self.table_name}.{self.name}"


@dataclass(frozen=True)
class Table:
    """A back-end table: a row count plus an ordered list of columns."""

    name: str
    row_count: int
    columns: Tuple[Column, ...]

    def __post_init__(self) -> None:
        if self.row_count <= 0:
            raise SchemaError(f"table {self.name!r} must have positive row count")
        if not self.columns:
            raise SchemaError(f"table {self.name!r} must have at least one column")
        by_name: Dict[str, Column] = {}
        for column in self.columns:
            if column.table_name != self.name:
                raise SchemaError(
                    f"column {column.qualified_name} does not belong to table {self.name!r}"
                )
            if column.name in by_name:
                raise SchemaError(f"duplicate column {column.qualified_name}")
            by_name[column.name] = column
        # The table is frozen, so the name index and the row width are
        # computed once rather than on every lookup.
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_row_width_bytes",
                           sum(column.width_bytes for column in self.columns))

    @property
    def row_width_bytes(self) -> int:
        """Average width of a full row."""
        return self._row_width_bytes

    @property
    def size_bytes(self) -> int:
        """Total on-disk size of the table."""
        return self.row_width_bytes * self.row_count

    def column(self, name: str) -> Column:
        """Return the column called ``name`` or raise :class:`UnknownColumnError`."""
        column = self._by_name.get(name)
        if column is None:
            raise UnknownColumnError(self.name, name)
        return column

    def has_column(self, name: str) -> bool:
        """Return whether the table defines a column called ``name``."""
        return name in self._by_name

    def column_size_bytes(self, name: str) -> int:
        """On-disk size of one column across all rows."""
        return self.column(name).width_bytes * self.row_count


@dataclass(frozen=True)
class Index:
    """Definition of a candidate index over one table.

    The index is described analytically: its size is the size of the key
    columns plus a per-row pointer overhead, and ``lookup_reduction`` is the
    fraction of the table's I/O that a plan using the index still performs.
    """

    name: str
    table_name: str
    column_names: Tuple[str, ...]
    pointer_bytes: int = 8

    def __post_init__(self) -> None:
        if not self.column_names:
            raise SchemaError(f"index {self.name!r} must cover at least one column")
        if len(set(self.column_names)) != len(self.column_names):
            raise SchemaError(f"index {self.name!r} repeats a column")
        if self.pointer_bytes <= 0:
            raise SchemaError(f"index {self.name!r} must have positive pointer width")

    def size_bytes(self, schema: "Schema") -> int:
        """On-disk size of the index against ``schema``."""
        table = schema.table(self.table_name)
        key_width = sum(table.column(name).width_bytes for name in self.column_names)
        return (key_width + self.pointer_bytes) * table.row_count

    def covers(self, table_name: str, column_names: Iterable[str]) -> bool:
        """Return whether the index key is a superset of ``column_names``."""
        if table_name != self.table_name:
            return False
        return set(column_names).issubset(self.column_names)


class Schema:
    """A queryable collection of tables and candidate index definitions."""

    def __init__(self, tables: Sequence[Table],
                 indexes: Optional[Sequence[Index]] = None) -> None:
        self._tables: Dict[str, Table] = {}
        for table in tables:
            if table.name in self._tables:
                raise SchemaError(f"duplicate table {table.name!r}")
            self._tables[table.name] = table
        self._indexes: Dict[str, Index] = {}
        for index in indexes or ():
            self.add_index(index)

    # -- tables -------------------------------------------------------------

    def tables(self) -> Iterator[Table]:
        """Iterate over all tables."""
        return iter(self._tables.values())

    def table(self, name: str) -> Table:
        """Return the table called ``name`` or raise :class:`UnknownTableError`."""
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(name) from None

    def has_table(self, name: str) -> bool:
        """Return whether the schema defines a table called ``name``."""
        return name in self._tables

    def column(self, table_name: str, column_name: str) -> Column:
        """Return one column, validating both table and column names."""
        return self.table(table_name).column(column_name)

    @property
    def total_size_bytes(self) -> int:
        """Total on-disk size of the database."""
        return sum(table.size_bytes for table in self._tables.values())

    # -- indexes ------------------------------------------------------------

    def add_index(self, index: Index) -> None:
        """Register a candidate index definition, validating its columns."""
        if index.name in self._indexes:
            raise SchemaError(f"duplicate index {index.name!r}")
        table = self.table(index.table_name)
        for column_name in index.column_names:
            if not table.has_column(column_name):
                raise UnknownColumnError(index.table_name, column_name)
        self._indexes[index.name] = index

    @property
    def index_names(self) -> List[str]:
        """Names of all candidate indexes, in insertion order."""
        return list(self._indexes)

    def indexes(self) -> Iterator[Index]:
        """Iterate over all candidate index definitions."""
        return iter(self._indexes.values())

    def index(self, name: str) -> Index:
        """Return the index definition called ``name``."""
        try:
            return self._indexes[name]
        except KeyError:
            raise SchemaError(f"unknown index: {name!r}") from None

    # -- misc ----------------------------------------------------------------

    def describe(self) -> str:
        """Human-readable multi-line summary used by the examples."""
        lines = [f"Schema: {len(self._tables)} tables, "
                 f"{self.total_size_bytes / 1e12:.2f} TB, "
                 f"{len(self._indexes)} candidate indexes"]
        for table in self._tables.values():
            lines.append(
                f"  {table.name}: {table.row_count:,} rows x "
                f"{table.row_width_bytes} B = {table.size_bytes / 1e9:.1f} GB, "
                f"{len(table.columns)} columns"
            )
        return "\n".join(lines)
