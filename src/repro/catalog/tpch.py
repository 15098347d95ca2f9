"""A TPC-H-like schema scaled to the paper's 2.5 TB back-end database.

Section VII-A operates the cache "under a TPCH-based workload ... against a
2.5 TB back-end database". We reconstruct the eight TPC-H tables with their
standard per-scale-factor cardinalities and realistic column widths, and
scale the row counts so that the total on-disk size matches a requested byte
budget (2.5 TB by default).

The column widths are the usual TPC-H datatype widths (4-byte integers and
dates, 8-byte decimals, fixed/variable character fields at their average
length), so relative table sizes — which is what drives caching decisions —
match the benchmark closely: LINEITEM and ORDERS dominate, the dimension
tables are small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro import constants
from repro.catalog.schema import Column, Schema, Table
from repro.errors import SchemaError


@dataclass(frozen=True)
class ColumnSpec:
    """Width and distinctness of one TPC-H column.

    ``distinct_fraction`` describes columns whose number of distinct values
    grows with the table (keys, prices, comments). Columns with a fixed
    domain regardless of scale (flags, ship modes, segments, dates) instead
    carry an absolute ``distinct_count``, which takes precedence.
    """

    name: str
    width_bytes: int
    distinct_fraction: float = 1.0
    distinct_count: int = 0

    def effective_fraction(self, row_count: int) -> float:
        """Distinct-value fraction of the column at a given table size."""
        if self.distinct_count:
            fraction = self.distinct_count / row_count
        else:
            fraction = self.distinct_fraction
        minimum = 1.0 / row_count
        return min(1.0, max(fraction, minimum))


@dataclass(frozen=True)
class TableSpec:
    """Cardinality (rows per scale factor) and columns of one TPC-H table."""

    name: str
    rows_per_scale_factor: int
    fixed_row_count: int
    columns: Tuple[ColumnSpec, ...]

    def row_count(self, scale_factor: float) -> int:
        """Row count of the table at a given TPC-H scale factor."""
        if self.fixed_row_count:
            return self.fixed_row_count
        return max(1, int(round(self.rows_per_scale_factor * scale_factor)))

    @property
    def row_width_bytes(self) -> int:
        """Average row width from the column specs."""
        return sum(column.width_bytes for column in self.columns)


def _spec(name: str, rows_per_sf: int, columns: Sequence[Tuple[str, int, float]],
          fixed: int = 0) -> TableSpec:
    """Build a table spec from ``(column, width, distinctness)`` triples.

    The distinctness value is interpreted by type: an ``int`` is an absolute
    distinct-value count (fixed-domain columns such as flags or ship modes),
    a ``float`` is the distinct fraction relative to the row count (keys,
    prices, free text).
    """
    column_specs = []
    for column_name, width, distinct in columns:
        if isinstance(distinct, int) and not isinstance(distinct, bool):
            column_specs.append(ColumnSpec(
                name=column_name, width_bytes=width, distinct_count=distinct,
            ))
        else:
            column_specs.append(ColumnSpec(
                name=column_name, width_bytes=width, distinct_fraction=float(distinct),
            ))
    return TableSpec(name=name, rows_per_scale_factor=rows_per_sf,
                     fixed_row_count=fixed, columns=tuple(column_specs))


#: The eight TPC-H tables. Row counts are the standard cardinalities per unit
#: scale factor (SF=1 is roughly 1 GB of raw data); NATION and REGION have
#: fixed cardinality regardless of scale.
TPCH_TABLE_SPECS: Tuple[TableSpec, ...] = (
    _spec("lineitem", 6_000_000, [
        ("l_orderkey", 4, 0.25),
        ("l_partkey", 4, 0.033),
        ("l_suppkey", 4, 0.0017),
        ("l_linenumber", 4, 7),
        ("l_quantity", 8, 50),
        ("l_extendedprice", 8, 0.15),
        ("l_discount", 8, 11),
        ("l_tax", 8, 9),
        ("l_returnflag", 1, 3),
        ("l_linestatus", 1, 2),
        ("l_shipdate", 4, 2526),
        ("l_commitdate", 4, 2466),
        ("l_receiptdate", 4, 2555),
        ("l_shipinstruct", 25, 4),
        ("l_shipmode", 10, 7),
        ("l_comment", 27, 0.9),
    ]),
    _spec("orders", 1_500_000, [
        ("o_orderkey", 4, 1.0),
        ("o_custkey", 4, 0.1),
        ("o_orderstatus", 1, 3),
        ("o_totalprice", 8, 0.9),
        ("o_orderdate", 4, 2406),
        ("o_orderpriority", 15, 5),
        ("o_clerk", 15, 6.7e-4),
        ("o_shippriority", 4, 1),
        ("o_comment", 49, 0.95),
    ]),
    _spec("partsupp", 800_000, [
        ("ps_partkey", 4, 0.25),
        ("ps_suppkey", 4, 0.0125),
        ("ps_availqty", 4, 9999),
        ("ps_supplycost", 8, 0.12),
        ("ps_comment", 124, 0.98),
    ]),
    _spec("part", 200_000, [
        ("p_partkey", 4, 1.0),
        ("p_name", 33, 0.99),
        ("p_mfgr", 25, 5),
        ("p_brand", 10, 25),
        ("p_type", 21, 150),
        ("p_size", 4, 50),
        ("p_container", 10, 40),
        ("p_retailprice", 8, 0.11),
        ("p_comment", 15, 0.65),
    ]),
    _spec("customer", 150_000, [
        ("c_custkey", 4, 1.0),
        ("c_name", 18, 1.0),
        ("c_address", 25, 1.0),
        ("c_nationkey", 4, 25),
        ("c_phone", 15, 1.0),
        ("c_acctbal", 8, 0.9),
        ("c_mktsegment", 10, 5),
        ("c_comment", 73, 1.0),
    ]),
    _spec("supplier", 10_000, [
        ("s_suppkey", 4, 1.0),
        ("s_name", 18, 1.0),
        ("s_address", 25, 1.0),
        ("s_nationkey", 4, 25),
        ("s_phone", 15, 1.0),
        ("s_acctbal", 8, 0.95),
        ("s_comment", 63, 1.0),
    ]),
    _spec("nation", 0, [
        ("n_nationkey", 4, 1.0),
        ("n_name", 25, 1.0),
        ("n_regionkey", 4, 5),
        ("n_comment", 74, 1.0),
    ], fixed=25),
    _spec("region", 0, [
        ("r_regionkey", 4, 1.0),
        ("r_name", 25, 1.0),
        ("r_comment", 76, 1.0),
    ], fixed=5),
)


def _scaling_bytes_per_scale_factor() -> float:
    """On-disk bytes contributed per unit scale factor by the scaled tables."""
    total = 0.0
    for spec in TPCH_TABLE_SPECS:
        if spec.fixed_row_count:
            continue
        total += spec.rows_per_scale_factor * spec.row_width_bytes
    return total


def _fixed_bytes() -> int:
    """On-disk bytes of the fixed-cardinality tables (NATION, REGION)."""
    total = 0
    for spec in TPCH_TABLE_SPECS:
        if spec.fixed_row_count:
            total += spec.fixed_row_count * spec.row_width_bytes
    return total


def scale_factor_for_bytes(target_bytes: int) -> float:
    """TPC-H scale factor whose on-disk size is approximately ``target_bytes``."""
    if target_bytes <= 0:
        raise SchemaError(f"target_bytes must be positive, got {target_bytes}")
    scalable = target_bytes - _fixed_bytes()
    if scalable <= 0:
        raise SchemaError(
            f"target_bytes={target_bytes} is smaller than the fixed tables alone"
        )
    return scalable / _scaling_bytes_per_scale_factor()


def build_tpch_schema(target_bytes: int = constants.BACKEND_DATABASE_BYTES,
                      scale_factor: float = None) -> Schema:
    """Build the TPC-H-like schema.

    Args:
        target_bytes: desired total on-disk size; ignored when
            ``scale_factor`` is given. Defaults to the paper's 2.5 TB.
        scale_factor: explicit TPC-H scale factor, overriding ``target_bytes``.

    Returns:
        A :class:`~repro.catalog.schema.Schema` with the eight TPC-H tables
        and no indexes (candidate indexes are added by the index advisor).
    """
    if scale_factor is None:
        scale_factor = scale_factor_for_bytes(target_bytes)
    if scale_factor <= 0:
        raise SchemaError(f"scale_factor must be positive, got {scale_factor}")

    tables = []
    for spec in TPCH_TABLE_SPECS:
        row_count = spec.row_count(scale_factor)
        columns = tuple(
            Column(
                table_name=spec.name,
                name=column.name,
                width_bytes=column.width_bytes,
                distinct_fraction=column.effective_fraction(row_count),
            )
            for column in spec.columns
        )
        tables.append(Table(name=spec.name, row_count=row_count, columns=columns))
    return Schema(tables)


