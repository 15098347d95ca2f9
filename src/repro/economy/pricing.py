"""Plan pricing: the discrete cloud budget function ``B_PQ(t)``.

The price of a plan (Eq. 4) is its execution cost plus the amortised build
cost of every structure it uses (Eqs. 5-7), plus — for structures that are
already built — the maintenance accrued since a paying plan last used them
(footnote 3). Plans in ``PQpos`` are priced with the estimated build cost of
their missing structures amortised from scratch, which is exactly the price
a future query would see once the cloud invests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.cache.manager import CacheManager
from repro.costmodel.amortization import AmortizationPolicy
from repro.costmodel.build import StructureCostModel
from repro.planner.plan import QueryPlan
from repro.structures.base import CacheStructure
from repro.structures.cached_index import CachedIndex


@dataclass(frozen=True)
class PricedPlan:
    """A plan together with its price breakdown at a specific moment.

    The total ``price`` is the value of the cloud budget function
    ``B_PQ`` at the plan's execution time: execution cost plus amortised
    build cost (Eq. 4). The maintenance accrued by the plan's structures
    since they were last used (footnote 3) is reported separately in
    ``maintenance_dollars`` and recovered from the payment when the plan is
    selected, but it is deliberately *not* folded into the price: doing so
    would make a structure ever more expensive to use the longer it sits
    idle, a self-reinforcing spiral that locks the cache out at long
    inter-arrival times (the economy then never recovers the dues at all).

    Example:
        >>> from repro.costmodel.execution import ExecutionEstimate
        >>> from repro.planner.plan import PlanKind, QueryPlan
        >>> from repro.workload.query import Query
        >>> query = Query(query_id=0, template_name="t", table_name="lineitem",
        ...               predicates=(), projection_columns=("l_quantity",))
        >>> estimate = ExecutionEstimate(
        ...     cost_units=1.0, io_operations=0.0, cpu_seconds=1.0,
        ...     network_bytes=0.0, response_time_s=3.0, cpu_dollars=2.0,
        ...     io_dollars=0.0, network_dollars=0.0)
        >>> priced = PricedPlan(
        ...     plan=QueryPlan(query=query, kind=PlanKind.BACKEND,
        ...                    execution=estimate),
        ...     execution_dollars=2.0, amortized_dollars=0.5,
        ...     maintenance_dollars=0.25, new_structures=(),
        ...     amortized_by_structure={})
        >>> priced.price, priced.is_existing, priced.response_time_s
        (2.5, True, 3.0)
    """

    plan: QueryPlan
    execution_dollars: float
    amortized_dollars: float
    maintenance_dollars: float
    new_structures: Tuple[CacheStructure, ...]
    amortized_by_structure: Dict[str, float]

    @property
    def price(self) -> float:
        """``B_PQ(t_PQ)``: what a user would be charged at minimum for this plan."""
        return self.execution_dollars + self.amortized_dollars

    @property
    def response_time_s(self) -> float:
        """The plan's execution time ``t_PQ``."""
        return self.plan.response_time_s

    @property
    def is_existing(self) -> bool:
        """Whether the plan uses only structures that are already built."""
        return not self.new_structures

    @property
    def label(self) -> str:
        """The underlying plan's short label."""
        return self.plan.label


class PlanPricer:
    """Prices plans against the current cache state.

    The pricer owns the build-cost memo every pricing path reads: scalar
    pricing of not-yet-built structures, the batched pricing tables, the
    investment rule's estimates and the builds themselves. A build cost depends only on the
    structure and, for an index, on which of its key columns must still
    be transferred (Eq. 14), so the memo key is ``(structure key,
    frozenset of missing column keys)``; columns and CPU nodes key on
    ``(structure key, None)``.
    """

    def __init__(self, structure_costs: StructureCostModel,
                 amortization: AmortizationPolicy) -> None:
        self._structure_costs = structure_costs
        self._amortization = amortization
        self._build_costs: Dict[Tuple[str, Optional[FrozenSet[str]]], float] = {}

    @property
    def amortization(self) -> AmortizationPolicy:
        """The amortisation policy in force."""
        return self._amortization

    def build_cost(self, structure: CacheStructure,
                   available_columns: AbstractSet[str]) -> float:
        """Memoized ``StructureCostModel.build_cost`` at catalog prices.

        Args:
            structure: the structure to price.
            available_columns: column keys a build may read instead of
                transferring them from the back-end.
        """
        if isinstance(structure, CachedIndex):
            missing: Optional[FrozenSet[str]] = frozenset(
                column.key for column in structure.required_columns()
                if column.key not in available_columns
            )
        else:
            missing = None
        memo_key = (structure.key, missing)
        cost = self._build_costs.get(memo_key)
        if cost is None:
            cost = self._structure_costs.build_cost(
                structure, cached_columns=available_columns
            )
            self._build_costs[memo_key] = cost
        return cost

    def price_plans(self, plans: Sequence[QueryPlan], cache: CacheManager,
                    now: float) -> List[PricedPlan]:
        """Price every plan in ``plans`` against the cache state at ``now``.

        Each distinct structure is priced once per call: its amortised
        charge and, if it is built, the maintenance it has accrued. Each
        plan then sums its structures' charges in plan-structure order.

        Args:
            plans: the plans to price.
            cache: the cache whose built structures decide what is
                existing versus possible.
            now: pricing instant (drives accrued-maintenance dues).

        Returns:
            One :class:`PricedPlan` breakdown per plan, in input order.
        """
        cached_column_keys = frozenset(
            key for key in cache.built_keys if key.startswith("column:")
        )
        # key -> (charge, accrued maintenance, or None if not built)
        structure_prices: Dict[str, Tuple[float, Optional[float]]] = {}
        priced: List[PricedPlan] = []
        for plan in plans:
            amortized_total = 0.0
            maintenance_total = 0.0
            amortized_by_structure: Dict[str, float] = {}
            new_structures: List[CacheStructure] = []
            for structure in plan.structures:
                key = structure.key
                structure_price = structure_prices.get(key)
                if structure_price is None:
                    structure_price = self._price_structure(
                        structure, cache, now, cached_column_keys
                    )
                    structure_prices[key] = structure_price
                charge, maintenance = structure_price
                if maintenance is None:
                    new_structures.append(structure)
                else:
                    maintenance_total += maintenance
                amortized_by_structure[key] = charge
                amortized_total += charge
            priced.append(PricedPlan(
                plan=plan,
                execution_dollars=plan.execution_dollars,
                amortized_dollars=amortized_total,
                maintenance_dollars=maintenance_total,
                new_structures=tuple(new_structures),
                amortized_by_structure=amortized_by_structure,
            ))
        return priced

    def _price_structure(self, structure: CacheStructure, cache: CacheManager,
                         now: float, cached_column_keys: FrozenSet[str]
                         ) -> Tuple[float, Optional[float]]:
        """A structure's amortised charge and, if built, its accrued maintenance."""
        if cache.contains(structure.key):
            entry = cache.entry(structure.key)
            charge = self._amortization.charge(entry.build_cost,
                                               entry.queries_served)
            return (min(charge, entry.unrecovered_build_cost()),
                    entry.accrued_maintenance(now))
        build_cost = self.build_cost(structure, cached_column_keys)
        return self._amortization.charge(build_cost, 0), None
