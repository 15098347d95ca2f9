"""Selectivity and cardinality estimation over the analytic catalog.

The planner and the cost model need to know, for every query, how many rows
and bytes a plan touches and how many it returns. The estimator implements
the textbook System-R style rules (equality selects ``1/distinct``, ranges
select a fixed fraction, conjunctions multiply under independence) which is
all the original paper's optimizer-backed cost model relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.catalog.schema import Schema
from repro.errors import SchemaError


#: Default selectivity of a range predicate when no better estimate exists;
#: the classic System-R assumption.
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0

#: Floor applied to every estimate so downstream divisions stay finite.
MIN_SELECTIVITY = 1e-9


@dataclass(frozen=True)
class ColumnStatistics:
    """Summary statistics of one column as the estimator sees it."""

    qualified_name: str
    row_count: int
    distinct_count: int
    width_bytes: int

    @property
    def equality_selectivity(self) -> float:
        """Fraction of rows matching ``column = constant``."""
        return max(MIN_SELECTIVITY, 1.0 / max(1, self.distinct_count))


class SelectivityEstimator:
    """Estimates predicate selectivities and result cardinalities."""

    def __init__(self, schema: Schema,
                 range_selectivity: float = DEFAULT_RANGE_SELECTIVITY) -> None:
        if not 0.0 < range_selectivity <= 1.0:
            raise SchemaError(
                f"range_selectivity must be in (0, 1], got {range_selectivity}"
            )
        self._schema = schema
        self._range_selectivity = range_selectivity
        self._cache: Dict[str, ColumnStatistics] = {}

    @property
    def schema(self) -> Schema:
        """The schema the estimator was built over."""
        return self._schema

    def column_statistics(self, table_name: str, column_name: str) -> ColumnStatistics:
        """Statistics of one column (cached)."""
        key = f"{table_name}.{column_name}"
        if key not in self._cache:
            table = self._schema.table(table_name)
            column = table.column(column_name)
            distinct = max(1, int(round(column.distinct_fraction * table.row_count)))
            self._cache[key] = ColumnStatistics(
                qualified_name=key,
                row_count=table.row_count,
                distinct_count=distinct,
                width_bytes=column.width_bytes,
            )
        return self._cache[key]

    # -- predicate selectivities --------------------------------------------

    def equality_selectivity(self, table_name: str, column_name: str) -> float:
        """Selectivity of ``column = constant``."""
        return self.column_statistics(table_name, column_name).equality_selectivity

    def range_selectivity(self, table_name: str, column_name: str,
                          fraction: Optional[float] = None) -> float:
        """Selectivity of a range predicate over one column.

        Args:
            fraction: explicit fraction of the column's domain covered by the
                range; defaults to the System-R constant.
        """
        self.column_statistics(table_name, column_name)  # validates names
        selectivity = self._range_selectivity if fraction is None else fraction
        if not 0.0 <= selectivity <= 1.0:
            raise SchemaError(f"range fraction must be in [0, 1], got {selectivity}")
        return max(MIN_SELECTIVITY, selectivity)

    def conjunction_selectivity(self, selectivities: Iterable[float]) -> float:
        """Selectivity of an AND of independent predicates."""
        combined = 1.0
        for selectivity in selectivities:
            if not 0.0 <= selectivity <= 1.0:
                raise SchemaError(
                    f"selectivity must be in [0, 1], got {selectivity}"
                )
            combined *= selectivity
        return max(MIN_SELECTIVITY, combined)

    # -- cardinalities and sizes ----------------------------------------------

    def output_rows(self, table_name: str, selectivity: float) -> int:
        """Number of rows a scan of ``table_name`` returns at ``selectivity``."""
        table = self._schema.table(table_name)
        return max(1, int(round(table.row_count * selectivity)))

    def scanned_bytes(self, table_name: str, column_names: Iterable[str]) -> int:
        """Bytes a column-store scan reads when touching ``column_names``."""
        table = self._schema.table(table_name)
        names = list(column_names)
        if not names:
            return table.size_bytes
        return sum(table.column_size_bytes(name) for name in names)
