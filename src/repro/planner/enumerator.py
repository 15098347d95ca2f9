"""Plan enumeration.

For every incoming query the enumerator produces the candidate plan set
``PQ``: the back-end plan (always available), cache column-scan plans, and —
when the scheme permits — index plans and multi-node variants. Which of
these plans fall into ``PQexist`` versus ``PQpos`` is determined later by
the economy against the current cache contents; the enumerator holds no
cache state, only per-template memos of the structural hot path (which
columns a plan needs, which candidate indexes are relevant) — those
depend on the template alone, never on the cache or the instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.costmodel.execution import ExecutionCostModel
from repro.errors import PlanningError
from repro.planner.plan import PlanKind, QueryPlan, required_columns_for
from repro.structures.base import CacheStructure
from repro.structures.cached_index import CachedIndex
from repro.structures.cpu_node import CpuNode
from repro.workload.query import Query


@dataclass(frozen=True)
class EnumeratorConfig:
    """What kinds of plans a caching scheme is allowed to consider.

    Attributes:
        allow_index_plans: whether plans may probe cached indexes
            (econ-cheap and econ-fast only).
        max_extra_nodes: how many CPU nodes beyond the always-on node plans
            may use (0 disables multi-node plans).
        allow_backend_plan: whether the back-end plan is offered; the paper
            always offers it ("the user ... accepts query execution in the
            back-end"), so disabling it is only useful in unit tests.
        max_candidate_indexes_per_query: cap on how many candidate indexes
            are turned into plans for a single query, keeping the plan set
            (and the skyline input) small.
    """

    allow_index_plans: bool = True
    max_extra_nodes: int = 2
    allow_backend_plan: bool = True
    max_candidate_indexes_per_query: int = 4

    def __post_init__(self) -> None:
        if self.max_extra_nodes < 0:
            raise PlanningError("max_extra_nodes must be non-negative")
        if self.max_candidate_indexes_per_query < 0:
            raise PlanningError(
                "max_candidate_indexes_per_query must be non-negative"
            )


class PlanEnumerator:
    """Enumerates and cost-annotates the candidate plans for a query."""

    def __init__(self, execution_model: ExecutionCostModel,
                 candidate_indexes: Sequence[CachedIndex] = (),
                 config: EnumeratorConfig = EnumeratorConfig()) -> None:
        self._execution = execution_model
        self._candidate_indexes = tuple(candidate_indexes)
        self._config = config
        # Per-template memo of the structural hot path: which columns a
        # cache-resident plan needs and which candidate indexes are relevant
        # depend only on the template (instances vary in selectivities, not
        # in the columns they touch), yet were recomputed for every query.
        # The memos are keyed by bare template name: a caller that reuses a
        # template name against a different catalog or candidate pool must
        # call :meth:`invalidate` or the stale entry wins.
        self._columns_by_template: dict = {}
        self._indexes_by_template: dict = {}
        self._generation = 0

    @property
    def config(self) -> EnumeratorConfig:
        """The enumeration capabilities."""
        return self._config

    @property
    def generation(self) -> int:
        """Monotonic counter bumped by every :meth:`invalidate` call.

        Derived caches (e.g. the per-template plan tables of
        :mod:`repro.planner.plan_table`) record the generation they were
        built against and rebuild when it moves, so one invalidation
        propagates through every layer keyed on this enumerator.
        """
        return self._generation

    def invalidate(self) -> int:
        """Drop the per-template memos and bump :attr:`generation`.

        Call after swapping the catalog, statistics, or candidate-index
        pool under a live enumerator — most commonly when a new schema
        reuses template names whose column sets changed. Returns the new
        generation so callers can stamp their own derived state.
        """
        self._columns_by_template.clear()
        self._indexes_by_template.clear()
        self._generation += 1
        return self._generation

    @property
    def candidate_indexes(self) -> Tuple[CachedIndex, ...]:
        """The candidate-index pool plans may draw from."""
        return self._candidate_indexes

    # -- enumeration -----------------------------------------------------------

    def enumerate(self, query: Query) -> List[QueryPlan]:
        """All candidate plans for ``query``.

        The order is fixed, because skyline and ``min()`` tie-breaks
        depend on it: the back-end plan first, then for each node count
        the column scan followed by the index plans in relevance order.
        """
        plans: List[QueryPlan] = []
        if self._config.allow_backend_plan:
            execution = self._execution.backend_execution(query)
            plans.append(QueryPlan(query=query, kind=PlanKind.BACKEND,
                                   execution=execution))
        required_columns = self._required_columns(query)
        relevant_indexes = (self._memoized_relevant_indexes(query)
                            if self._config.allow_index_plans else ())
        node_counts = self._node_counts()
        scans = self._execution.cache_executions(query, None, node_counts)
        probes = [self._execution.cache_executions(query, index, node_counts)
                  for index in relevant_indexes]
        for position, node_count in enumerate(node_counts):
            nodes = self._node_structures(node_count)
            plans.append(QueryPlan(
                query=query,
                kind=PlanKind.CACHE_COLUMN_SCAN,
                execution=scans[position],
                structures=required_columns + nodes,
                node_count=node_count,
            ))
            for index, estimates in zip(relevant_indexes, probes):
                plans.append(QueryPlan(
                    query=query,
                    kind=PlanKind.CACHE_INDEX,
                    execution=estimates[position],
                    structures=required_columns + (index,) + nodes,
                    index=index,
                    node_count=node_count,
                ))
        return plans

    # -- helpers ---------------------------------------------------------------------

    def _node_counts(self) -> range:
        return range(1, self._config.max_extra_nodes + 2)

    def _required_columns(self, query: Query) -> Tuple[CacheStructure, ...]:
        """Memoized :func:`required_columns_for`, keyed by template name.

        Queries instantiated from the same template touch the same columns
        (only selectivities differ), so the column set is computed once per
        template instead of once per query.
        """
        cached = self._columns_by_template.get(query.template_name)
        if cached is None:
            cached = required_columns_for(query)
            self._columns_by_template[query.template_name] = cached
        return cached

    def _memoized_relevant_indexes(self, query: Query) -> Tuple[CachedIndex, ...]:
        """Memoized :meth:`_relevant_indexes`, keyed by template name.

        Relevance depends only on the template's predicated columns, yet
        the unmemoized path filters and sorts the whole candidate pool for
        every query.
        """
        cached = self._indexes_by_template.get(query.template_name)
        if cached is None:
            cached = tuple(self._relevant_indexes(query))
            self._indexes_by_template[query.template_name] = cached
        return cached

    def _node_structures(self, node_count: int) -> Tuple[CacheStructure, ...]:
        """Extra-node structures a plan with ``node_count`` total nodes needs."""
        return tuple(CpuNode(ordinal) for ordinal in range(1, node_count))

    def _relevant_indexes(self, query: Query) -> List[CachedIndex]:
        """Candidate indexes whose leading column is predicated by the query.

        The most selective candidates (fewest key columns first, so probing
        stays cheap) are preferred when the per-query cap truncates the list.
        """
        relevant = [
            index for index in self._candidate_indexes
            if any(index.serves_predicate_on(query.table_name, column)
                   for column in query.predicate_columns)
        ]
        relevant.sort(key=lambda index: (len(index.column_names), index.key))
        cap = self._config.max_candidate_indexes_per_query
        return relevant[:cap] if cap else []
