"""Analytic query model.

A :class:`Query` does not carry SQL text: it carries exactly the information
the planner and cost model need —

* the table it scans and the columns it touches,
* its predicates (kind + selectivity), so index benefit can be estimated,
* the columns it returns and an aggregation factor, so the result size
  ``S(Q)`` of Eq. 9 can be computed,
* a parallelisable fraction, feeding the multi-node scaling law.

Queries are produced from :class:`QueryTemplate` objects by the workload
generator, which fills in the per-instance selectivities that give the
workload its data locality.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Optional, Tuple

from repro.catalog.statistics import SelectivityEstimator
from repro.errors import WorkloadError


class PredicateKind(enum.Enum):
    """The two predicate shapes the selectivity estimator distinguishes."""

    EQUALITY = "equality"
    RANGE = "range"


@dataclass(frozen=True)
class Predicate:
    """One predicate of a query: a column, a shape, and a selectivity.

    ``selectivity`` may be ``None`` on a template predicate, in which case the
    generator (or the estimator defaults) fill it in at instantiation time.
    """

    table_name: str
    column_name: str
    kind: PredicateKind
    selectivity: Optional[float] = None

    def __post_init__(self) -> None:
        if self.selectivity is not None and not 0.0 < self.selectivity <= 1.0:
            raise WorkloadError(
                f"predicate on {self.table_name}.{self.column_name} has "
                f"selectivity {self.selectivity}, expected (0, 1]"
            )

    @property
    def qualified_column(self) -> str:
        """``table.column`` name of the predicated column."""
        return f"{self.table_name}.{self.column_name}"

    def resolved_selectivity(self, estimator: SelectivityEstimator) -> float:
        """Selectivity of this predicate, falling back to estimator defaults."""
        if self.selectivity is not None:
            return self.selectivity
        if self.kind is PredicateKind.EQUALITY:
            return estimator.equality_selectivity(self.table_name, self.column_name)
        return estimator.range_selectivity(self.table_name, self.column_name)

    def with_selectivity(self, selectivity: float) -> "Predicate":
        """Copy of the predicate with an explicit selectivity."""
        return Predicate(self.table_name, self.column_name, self.kind,
                         selectivity)


@dataclass(frozen=True)
class QueryTemplate:
    """A parameterised query shape, the unit the workload generator draws from.

    Attributes:
        name: template identifier (e.g. ``"q1_pricing_summary"``).
        table_name: the (fact) table the template scans.
        predicates: template predicates; their selectivities may be ``None``.
        projection_columns: columns returned to the user.
        order_by_columns: columns the result is sorted on (drives which
            candidate indexes the advisor proposes).
        aggregation_factor: fraction of the selected rows that survive
            aggregation (1.0 for non-aggregating queries, small for
            GROUP-BY-few-groups queries).
        join_tables: additional (dimension) tables the query joins with; the
            cost model charges their scans but results are dominated by the
            fact table.
        parallel_fraction: fraction of the work that can be spread over
            extra CPU nodes (Amdahl-style).
        base_cost_factor: multiplier on the scanned-data work, representing
            per-template CPU heaviness (expressions, grouping, sorting).
    """

    name: str
    table_name: str
    predicates: Tuple[Predicate, ...]
    projection_columns: Tuple[str, ...]
    order_by_columns: Tuple[str, ...] = ()
    aggregation_factor: float = 1.0
    join_tables: Tuple[str, ...] = ()
    parallel_fraction: float = 0.9
    base_cost_factor: float = 1.0

    def __post_init__(self) -> None:
        if not self.projection_columns:
            raise WorkloadError(f"template {self.name!r} projects no columns")
        if not 0.0 < self.aggregation_factor <= 1.0:
            raise WorkloadError(
                f"template {self.name!r} aggregation_factor must be in (0, 1]"
            )
        if not 0.0 <= self.parallel_fraction <= 1.0:
            raise WorkloadError(
                f"template {self.name!r} parallel_fraction must be in [0, 1]"
            )
        if self.base_cost_factor <= 0:
            raise WorkloadError(
                f"template {self.name!r} base_cost_factor must be positive"
            )

    @cached_property
    def qualified_predicate_columns(self) -> Tuple[str, ...]:
        """``table.column`` of each predicate, in order (computed once)."""
        return tuple(predicate.qualified_column
                     for predicate in self.predicates)

    @property
    def predicate_columns(self) -> Tuple[str, ...]:
        """Column names (unqualified) referenced by predicates on the fact table."""
        return tuple(
            predicate.column_name for predicate in self.predicates
            if predicate.table_name == self.table_name
        )

    @property
    def touched_columns(self) -> Tuple[str, ...]:
        """All fact-table columns the template reads (predicates + projection + sort)."""
        ordered: Dict[str, None] = {}
        for name in self.predicate_columns:
            ordered.setdefault(name, None)
        for name in self.projection_columns:
            ordered.setdefault(name, None)
        for name in self.order_by_columns:
            ordered.setdefault(name, None)
        return tuple(ordered)

    def instantiate(self, query_id: int, arrival_time: float,
                    selectivities: Optional[Dict[str, float]] = None,
                    budget_scale: float = 1.0,
                    tenant_id: str = "default") -> "Query":
        """Create a concrete :class:`Query` from this template.

        Args:
            query_id: unique, monotonically increasing identifier.
            arrival_time: simulation time (seconds) at which the query arrives.
            selectivities: optional map ``table.column -> selectivity``
                overriding template predicate selectivities.
            budget_scale: multiplier the generator uses to vary how much the
                user is willing to pay relative to the baseline.
            tenant_id: the tenant (user account) issuing the query; defaults
                to the single shared tenant of the original paper pipeline.
        """
        if selectivities:
            predicates = tuple([
                predicate.with_selectivity(selectivities[column])
                if column in selectivities else predicate
                for predicate, column in zip(self.predicates,
                                             self.qualified_predicate_columns)
            ])
        else:
            predicates = tuple(self.predicates)
        return Query(query_id, self.name, self.table_name, predicates,
                     self.projection_columns, self.order_by_columns,
                     self.aggregation_factor, self.join_tables,
                     self.parallel_fraction, self.base_cost_factor,
                     arrival_time, budget_scale, tenant_id)


@dataclass(frozen=True)
class Query:
    """A concrete query instance flowing through the simulator."""

    query_id: int
    template_name: str
    table_name: str
    predicates: Tuple[Predicate, ...]
    projection_columns: Tuple[str, ...]
    order_by_columns: Tuple[str, ...] = ()
    aggregation_factor: float = 1.0
    join_tables: Tuple[str, ...] = ()
    parallel_fraction: float = 0.9
    base_cost_factor: float = 1.0
    arrival_time: float = 0.0
    budget_scale: float = 1.0
    tenant_id: str = "default"

    def __post_init__(self) -> None:
        if self.query_id < 0:
            raise WorkloadError(f"query_id must be non-negative, got {self.query_id}")
        if self.arrival_time < 0:
            raise WorkloadError(
                f"arrival_time must be non-negative, got {self.arrival_time}"
            )
        if self.budget_scale <= 0:
            raise WorkloadError(
                f"budget_scale must be positive, got {self.budget_scale}"
            )
        if not self.tenant_id:
            raise WorkloadError("tenant_id must not be empty")

    def with_tenant(self, tenant_id: str) -> "Query":
        """Copy of the query issued by ``tenant_id``.

        One constructor call, so the copy is validated like any query;
        cheaper than ``dataclasses.replace``, which walks the fields.
        """
        return Query(self.query_id, self.template_name, self.table_name,
                     self.predicates, self.projection_columns,
                     self.order_by_columns, self.aggregation_factor,
                     self.join_tables, self.parallel_fraction,
                     self.base_cost_factor, self.arrival_time,
                     self.budget_scale, tenant_id)

    @property
    def predicate_columns(self) -> Tuple[str, ...]:
        """Unqualified fact-table predicate column names."""
        return tuple(
            predicate.column_name for predicate in self.predicates
            if predicate.table_name == self.table_name
        )

    @property
    def touched_columns(self) -> Tuple[str, ...]:
        """All fact-table columns the query reads."""
        ordered: Dict[str, None] = {}
        for name in self.predicate_columns:
            ordered.setdefault(name, None)
        for name in self.projection_columns:
            ordered.setdefault(name, None)
        for name in self.order_by_columns:
            ordered.setdefault(name, None)
        return tuple(ordered)

    # -- analytic properties consumed by the cost model -----------------------

    def selectivity(self, estimator: SelectivityEstimator) -> float:
        """Combined selectivity of *all* predicates (fact and join filters).

        This drives the result size ``S(Q)``: rows only reach the user if
        they survive the dimension-table filters as well.
        """
        if not self.predicates:
            return 1.0
        return estimator.conjunction_selectivity(
            predicate.resolved_selectivity(estimator)
            for predicate in self.predicates
        )

    def result_rows(self, estimator: SelectivityEstimator) -> int:
        """Number of rows the query returns to the user."""
        selected = estimator.output_rows(self.table_name, self.selectivity(estimator))
        return max(1, int(round(selected * self.aggregation_factor)))

    def result_bytes(self, estimator: SelectivityEstimator) -> int:
        """``S(Q)`` of Eq. 9: bytes shipped back to the cache / user."""
        table = estimator.schema.table(self.table_name)
        width = sum(
            table.column(name).width_bytes for name in self.projection_columns
        )
        return max(1, self.result_rows(estimator) * width)

    def scanned_bytes(self, estimator: SelectivityEstimator,
                      column_names: Optional[Iterable[str]] = None) -> int:
        """Bytes a column scan reads for this query.

        Args:
            column_names: restrict the scan to these columns; defaults to all
                columns the query touches.
        """
        names = tuple(column_names) if column_names is not None else self.touched_columns
        scanned = estimator.scanned_bytes(self.table_name, names)
        for join_table in self.join_tables:
            scanned += estimator.schema.table(join_table).size_bytes
        return scanned
