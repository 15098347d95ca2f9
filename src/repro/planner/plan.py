"""Query-plan objects.

A plan records *where* the query runs (cache or back-end), *which structures*
it relies on, and the execution estimate the cost model produced for it.
Whether a plan belongs to ``PQexist`` or ``PQpos`` is not a property of the
plan itself but of the cache state at pricing time, so the plan exposes
:meth:`QueryPlan.new_structures` against a set of built structure keys.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Container, Dict, FrozenSet, Optional, Tuple

from repro.costmodel.execution import ExecutionEstimate
from repro.errors import PlanningError
from repro.structures.base import CacheStructure
from repro.structures.cached_column import CachedColumn
from repro.structures.cached_index import CachedIndex
from repro.structures.cpu_node import CpuNode
from repro.workload.query import Query


class PlanKind(enum.Enum):
    """The plan shapes the enumerator produces."""

    BACKEND = "backend"
    CACHE_COLUMN_SCAN = "cache_column_scan"
    CACHE_INDEX = "cache_index"


def required_columns_for(query: Query) -> Tuple[CachedColumn, ...]:
    """Cached-column structures a cache-resident plan for ``query`` needs.

    The fact table contributes every column the query touches. Each joined
    dimension table contributes the columns predicated on it plus its first
    column, standing in for the join key; this keeps join-heavy templates
    paying a realistic (but not exhaustive) caching bill.
    """
    columns: Dict[str, CachedColumn] = {}
    for column_name in query.touched_columns:
        structure = CachedColumn(query.table_name, column_name)
        columns[structure.key] = structure
    for predicate in query.predicates:
        if predicate.table_name == query.table_name:
            continue
        structure = CachedColumn(predicate.table_name, predicate.column_name)
        columns[structure.key] = structure
    return tuple(columns.values())


@dataclass(frozen=True)
class QueryPlan:
    """One way of executing one query.

    Attributes:
        query: the query the plan executes.
        kind: backend, cache column scan, or cache index plan.
        index: the index probed by a :attr:`PlanKind.CACHE_INDEX` plan.
        node_count: total CPU nodes used (1 = just the always-on node).
        structures: every cache structure the plan relies on (columns,
            the index, and extra CPU nodes); empty for back-end plans.
        execution: the execution estimate the cost model produced.
    """

    query: Query
    kind: PlanKind
    execution: ExecutionEstimate
    structures: Tuple[CacheStructure, ...] = ()
    index: Optional[CachedIndex] = None
    node_count: int = 1

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise PlanningError(f"node_count must be >= 1, got {self.node_count}")
        if self.kind is PlanKind.BACKEND and self.structures:
            raise PlanningError("a back-end plan cannot rely on cache structures")
        if self.kind is PlanKind.CACHE_INDEX and self.index is None:
            raise PlanningError("a cache index plan must name its index")
        if self.kind is not PlanKind.CACHE_INDEX and self.index is not None:
            raise PlanningError(f"{self.kind.value} plans cannot carry an index")

    # -- identity / reporting ---------------------------------------------------

    @property
    def label(self) -> str:
        """Short identifier used in logs and experiment reports."""
        if self.kind is PlanKind.BACKEND:
            return "backend"
        parts = [self.kind.value]
        if self.index is not None:
            parts.append(self.index.key)
        if self.node_count > 1:
            parts.append(f"{self.node_count}nodes")
        return "+".join(parts)

    @property
    def runs_in_cache(self) -> bool:
        """Whether the plan executes inside the cloud cache."""
        return self.kind is not PlanKind.BACKEND

    @property
    def response_time_s(self) -> float:
        """Wall-clock response time of the plan."""
        return self.execution.response_time_s

    @property
    def execution_dollars(self) -> float:
        """Pure execution cost ``Ce`` of the plan."""
        return self.execution.dollars

    # -- structure bookkeeping -----------------------------------------------------

    @property
    def structure_keys(self) -> FrozenSet[str]:
        """Keys of every structure the plan relies on."""
        return frozenset(structure.key for structure in self.structures)

    @property
    def cached_columns(self) -> Tuple[CachedColumn, ...]:
        """The cached-column structures among :attr:`structures`."""
        return tuple(structure for structure in self.structures
                     if isinstance(structure, CachedColumn))

    @property
    def cpu_nodes(self) -> Tuple[CpuNode, ...]:
        """The extra CPU-node structures among :attr:`structures`."""
        return tuple(structure for structure in self.structures
                     if isinstance(structure, CpuNode))

    def new_structures(self, built_keys: Container[str]) -> Tuple[CacheStructure, ...]:
        """Structures the plan needs that are not yet built.

        Args:
            built_keys: keys of structures currently present in the cache.
        """
        return tuple(structure for structure in self.structures
                     if structure.key not in built_keys)

    def is_existing(self, built_keys: Container[str]) -> bool:
        """Whether the plan belongs to ``PQexist`` for the given cache state."""
        return not self.new_structures(built_keys)
