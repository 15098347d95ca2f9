"""Cached index structures.

Section V-C prices an index build as the cost of sorting its key columns
(emulated as running ``select A, B from T order by A, B`` in the cache) plus
the cost of first transferring any key column that is not yet cached
(Eq. 14). Maintenance is pure disk-space cost (Eq. 15) because the paper
assumes static back-end data.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.catalog.schema import Schema
from repro.errors import ConfigurationError
from repro.structures.base import CacheStructure, StructureKind
from repro.structures.cached_column import CachedColumn


class CachedIndex(CacheStructure):
    """An index over one or more columns of a back-end table, built in the cache."""

    def __init__(self, table_name: str, column_names: Tuple[str, ...],
                 pointer_bytes: int = 8) -> None:
        if not column_names:
            raise ConfigurationError("an index must cover at least one column")
        if len(set(column_names)) != len(column_names):
            raise ConfigurationError(
                f"index on {table_name!r} repeats a column: {column_names}"
            )
        self._table_name = table_name
        self._column_names = tuple(column_names)
        self._pointer_bytes = pointer_bytes
        # Key strings and required-column tuples are read on every pricing
        # pass; build them once.
        columns = ",".join(self._column_names)
        self._key = f"index:{table_name}({columns})"
        self._required_columns: Optional[Tuple[CachedColumn, ...]] = None

    @property
    def table_name(self) -> str:
        """Name of the indexed table."""
        return self._table_name

    @property
    def column_names(self) -> Tuple[str, ...]:
        """Key columns, in index order."""
        return self._column_names

    @property
    def leading_column(self) -> str:
        """The first key column, which determines which predicates the index serves."""
        return self._column_names[0]

    @property
    def kind(self) -> StructureKind:
        return StructureKind.INDEX

    @property
    def key(self) -> str:
        return self._key

    def size_bytes(self, schema: Schema) -> int:
        """Key width plus a per-row pointer, times the table's row count."""
        table = schema.table(self._table_name)
        key_width = sum(
            table.column(name).width_bytes for name in self._column_names
        )
        return (key_width + self._pointer_bytes) * table.row_count

    def required_columns(self) -> Tuple[CachedColumn, ...]:
        """The cached-column structures the index build needs in the cache."""
        if self._required_columns is None:
            self._required_columns = tuple(
                CachedColumn(self._table_name, name)
                for name in self._column_names
            )
        return self._required_columns

    def serves_predicate_on(self, table_name: str, column_name: str) -> bool:
        """Whether the index can accelerate a predicate on ``table.column``.

        Only the leading column is usable for a single-predicate lookup,
        matching the usual B-tree prefix rule.
        """
        return table_name == self._table_name and column_name == self.leading_column

