"""The seven TPC-H-derived query templates of the paper's workload.

Section VII-A: "The cache is operated under a TPCH-based workload, which
consists of 7 TPCH query templates and simulates the query evolution of a
million SDSS-like queries against a 2.5TB back-end database."

The seven templates below are analytic renderings of TPC-H Q1, Q3, Q6, Q12,
Q14, Q19 and Q10 — the classic selection/aggregation-heavy subset that maps
naturally onto a column cache (scan a fact table, filter on a few columns,
project a few more, aggregate). Each template records which columns it
touches, how selective its predicates are, how heavily it aggregates, and
how parallelisable it is, which is all the economy needs.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import WorkloadError
from repro.workload.query import Predicate, PredicateKind, QueryTemplate


def _range(table: str, column: str, selectivity: float = None) -> Predicate:
    return Predicate(table_name=table, column_name=column,
                     kind=PredicateKind.RANGE, selectivity=selectivity)


def _eq(table: str, column: str, selectivity: float = None) -> Predicate:
    return Predicate(table_name=table, column_name=column,
                     kind=PredicateKind.EQUALITY, selectivity=selectivity)


def paper_templates() -> Tuple[QueryTemplate, ...]:
    """The 7 templates used by every experiment unless overridden."""
    return (
        # TPC-H Q1: pricing summary report. Scans most of LINEITEM, filters
        # on ship date, aggregates into a handful of groups. Result-light but
        # scan- and CPU-heavy.
        QueryTemplate(
            name="q1_pricing_summary",
            table_name="lineitem",
            predicates=(_range("lineitem", "l_shipdate", 0.95),),
            projection_columns=(
                "l_returnflag", "l_linestatus", "l_quantity",
                "l_extendedprice", "l_discount", "l_tax",
            ),
            order_by_columns=("l_returnflag", "l_linestatus"),
            aggregation_factor=1e-6,
            parallel_fraction=0.95,
            base_cost_factor=1.6,
        ),
        # TPC-H Q3: shipping priority. Joins ORDERS and CUSTOMER, filters on
        # dates and market segment, returns the top orders.
        QueryTemplate(
            name="q3_shipping_priority",
            table_name="lineitem",
            predicates=(
                _range("lineitem", "l_shipdate", 0.45),
                _range("orders", "o_orderdate", 0.45),
                _eq("customer", "c_mktsegment", 0.2),
            ),
            projection_columns=(
                "l_orderkey", "l_extendedprice", "l_discount", "l_shipdate",
            ),
            order_by_columns=("l_orderkey",),
            aggregation_factor=0.06,
            join_tables=("orders", "customer"),
            parallel_fraction=0.9,
            base_cost_factor=1.3,
        ),
        # TPC-H Q6: forecasting revenue change. Highly selective scan of
        # LINEITEM on date, discount and quantity; tiny aggregate result.
        QueryTemplate(
            name="q6_forecast_revenue",
            table_name="lineitem",
            predicates=(
                _range("lineitem", "l_shipdate", 0.15),
                _range("lineitem", "l_discount", 0.27),
                _range("lineitem", "l_quantity", 0.48),
            ),
            projection_columns=("l_extendedprice", "l_discount"),
            aggregation_factor=1e-6,
            parallel_fraction=0.98,
            base_cost_factor=0.8,
        ),
        # TPC-H Q12: shipping modes and order priority. Filters on ship mode
        # and receipt date, joins ORDERS, aggregates by ship mode.
        QueryTemplate(
            name="q12_shipping_modes",
            table_name="lineitem",
            predicates=(
                _eq("lineitem", "l_shipmode", 0.14),
                _range("lineitem", "l_receiptdate", 0.15),
            ),
            projection_columns=("l_shipmode", "l_orderkey", "l_commitdate",
                                "l_receiptdate", "l_shipdate"),
            order_by_columns=("l_shipmode",),
            aggregation_factor=1e-6,
            join_tables=("orders",),
            parallel_fraction=0.92,
            base_cost_factor=1.0,
        ),
        # TPC-H Q14: promotion effect. Joins PART, filters on one month of
        # ship dates, aggregate result.
        QueryTemplate(
            name="q14_promotion_effect",
            table_name="lineitem",
            predicates=(_range("lineitem", "l_shipdate", 0.013),),
            projection_columns=("l_partkey", "l_extendedprice", "l_discount"),
            aggregation_factor=1e-6,
            join_tables=("part",),
            parallel_fraction=0.95,
            base_cost_factor=0.9,
        ),
        # TPC-H Q19: discounted revenue. Complex disjunctive predicate over
        # PART attributes and LINEITEM quantity/shipmode.
        QueryTemplate(
            name="q19_discounted_revenue",
            table_name="lineitem",
            predicates=(
                _range("lineitem", "l_quantity", 0.3),
                _eq("lineitem", "l_shipmode", 0.28),
                _eq("part", "p_brand", 0.04),
                _range("part", "p_size", 0.3),
            ),
            projection_columns=("l_extendedprice", "l_discount", "l_partkey"),
            aggregation_factor=1e-6,
            join_tables=("part",),
            parallel_fraction=0.93,
            base_cost_factor=1.1,
        ),
        # TPC-H Q10: returned item reporting. Result-heavy: returns customer
        # detail rows for a quarter of returned items.
        QueryTemplate(
            name="q10_returned_items",
            table_name="lineitem",
            predicates=(
                _eq("lineitem", "l_returnflag", 0.33),
                _range("orders", "o_orderdate", 0.03),
            ),
            projection_columns=(
                "l_orderkey", "l_extendedprice", "l_discount", "l_returnflag",
            ),
            order_by_columns=("l_extendedprice",),
            aggregation_factor=0.1,
            join_tables=("orders", "customer", "nation"),
            parallel_fraction=0.88,
            base_cost_factor=1.2,
        ),
    )


def template_by_name(name: str) -> QueryTemplate:
    """Look up one of the paper templates by name."""
    for template in paper_templates():
        if template.name == name:
            return template
    known = ", ".join(template.name for template in paper_templates())
    raise WorkloadError(f"unknown template {name!r}; known templates: {known}")


