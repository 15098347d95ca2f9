"""Plan negotiation: Cases A, B and C of Section IV-C (Figure 2).

The user budget function ``B_Q`` is compared against the cloud's discrete
budget function ``B_PQ`` (the priced plans):

* **Case A** — every plan costs more than the user is willing to pay. The
  user is shown the existing plans and (per the experimental setup) accepts
  the cheapest one, typically back-end execution, paying its price with no
  cloud profit. Regret records the missed chance to serve the query more
  cheaply (Eq. 1).
* **Case B** — every plan is within budget. The cloud picks the existing
  plan that minimises its own profit, charges the user her budget at that
  response time, and credits the difference. Regret records the profit the
  not-yet-built plans would have brought (Eq. 2).
* **Case C** — only some plans are within budget; handled like Case B
  restricted to the affordable subset.

The selection criterion is configurable because the experimental section
evaluates variants: econ-cheap picks the cheapest affordable plan and
econ-fast the fastest affordable plan.

Negotiation reads three things of a plan: its price, its response time
and whether it is existing (:class:`NegotiablePlan`). The engine
negotiates over light per-row candidates on both planning paths, and
settles the chosen row's :class:`~repro.economy.pricing.PricedPlan`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Generic, List, Protocol, Sequence, Tuple, TypeVar

from repro.economy.budget import BudgetFunction
from repro.errors import PlanningError


class NegotiationCase(enum.Enum):
    """Which of the three relationships between ``B_Q`` and ``B_PQ`` held."""

    A = "A"
    B = "B"
    C = "C"


class PlanSelection(enum.Enum):
    """How the chosen plan is picked among the affordable existing plans."""

    #: Paper default for cases B/C: minimise the cloud profit
    #: ``B_Q(t) - B_PQ(t)``.
    MIN_PROFIT = "min_profit"
    #: econ-cheap: pick the plan with the least cost.
    CHEAPEST = "cheapest"
    #: econ-fast: pick the plan with the fastest response time.
    FASTEST = "fastest"


class NegotiablePlan(Protocol):
    """What negotiation reads of a plan."""

    @property
    def price(self) -> float:
        """``B_PQ(t_PQ)``, the least the user could be charged."""

    @property
    def response_time_s(self) -> float:
        """The plan's execution time ``t_PQ``."""

    @property
    def is_existing(self) -> bool:
        """Whether every structure the plan uses is built."""


PlanT = TypeVar("PlanT", bound=NegotiablePlan)


@dataclass(frozen=True)
class NegotiationResult(Generic[PlanT]):
    """Outcome of negotiating one query."""

    case: NegotiationCase
    chosen: PlanT
    charge: float
    profit: float
    regrets: Tuple[Tuple[PlanT, float], ...]

    @property
    def response_time_s(self) -> float:
        """Response time of the chosen plan."""
        return self.chosen.response_time_s


def negotiate(budget: BudgetFunction, priced_plans: Sequence[PlanT],
              selection: PlanSelection = PlanSelection.MIN_PROFIT
              ) -> NegotiationResult[PlanT]:
    """Choose a plan for one query and compute the regrets of the others.

    Args:
        budget: the user's budget function ``B_Q``.
        priced_plans: the (skyline-filtered) plan set ``PQ``; must contain at
            least one existing plan.
        selection: tie-breaking policy among affordable existing plans.

    Returns:
        The :class:`NegotiationResult` — which case held, the chosen plan,
        the user charge, the cloud profit, and the per-plan regrets.

    Raises:
        PlanningError: if ``priced_plans`` contains no existing plan (the
            back-end plan should always be offered).

    Example:
        Two existing back-end-style plans against a flat $10 budget; the
        default MIN_PROFIT selection picks the plan on which the cloud
        earns least (the $6 one), charges the budget, and banks the gap:

        >>> from repro.costmodel.execution import ExecutionEstimate
        >>> from repro.economy.budget import StepBudget
        >>> from repro.economy.pricing import PricedPlan
        >>> from repro.planner.plan import PlanKind, QueryPlan
        >>> from repro.workload.query import Query
        >>> query = Query(query_id=0, template_name="t", table_name="lineitem",
        ...               predicates=(), projection_columns=("l_quantity",))
        >>> def priced(price, time_s):
        ...     estimate = ExecutionEstimate(
        ...         cost_units=1.0, io_operations=0.0, cpu_seconds=1.0,
        ...         network_bytes=0.0, response_time_s=time_s,
        ...         cpu_dollars=price, io_dollars=0.0, network_dollars=0.0)
        ...     plan = QueryPlan(query=query, kind=PlanKind.BACKEND,
        ...                      execution=estimate)
        ...     return PricedPlan(plan=plan, execution_dollars=price,
        ...                       amortized_dollars=0.0,
        ...                       maintenance_dollars=0.0, new_structures=(),
        ...                       amortized_by_structure={})
        >>> result = negotiate(StepBudget(amount=10.0, max_time_s=60.0),
        ...                    [priced(4.0, 30.0), priced(6.0, 10.0)])
        >>> (result.case.value, result.chosen.price, result.charge,
        ...  result.profit)
        ('B', 6.0, 10.0, 4.0)
    """
    existing = [plan for plan in priced_plans if plan.is_existing]
    possible = [plan for plan in priced_plans if not plan.is_existing]
    if not existing:
        raise PlanningError("negotiation requires at least one existing plan")

    affordable_existing = [
        plan for plan in existing
        if budget.accepts(plan.response_time_s, plan.price)
    ]

    if not affordable_existing:
        return _case_a(budget, existing, possible)

    all_within_budget = all(
        budget.accepts(plan.response_time_s, plan.price) for plan in priced_plans
    )
    case = NegotiationCase.B if all_within_budget else NegotiationCase.C
    return _case_b_or_c(budget, case, affordable_existing, possible, selection)


def _case_a(budget: BudgetFunction, existing: List[PlanT],
            possible: List[PlanT]) -> NegotiationResult[PlanT]:
    """No plan fits the budget: the user reluctantly pays for the cheapest
    existing plan; regret follows Eq. 1."""
    chosen = min(existing, key=lambda plan: (plan.price, plan.response_time_s))
    regrets: List[Tuple[PlanT, float]] = []
    for plan in possible:
        if plan is chosen:
            continue
        # Eq. 1: the difference of the cost of the chosen and the not-chosen
        # plan, for plans that would have been cheaper.
        regret = chosen.price - plan.price
        if regret > 0:
            regrets.append((plan, regret))
    return NegotiationResult(
        case=NegotiationCase.A,
        chosen=chosen,
        charge=chosen.price,
        profit=0.0,
        regrets=tuple(regrets),
    )


def _case_b_or_c(budget: BudgetFunction, case: NegotiationCase,
                 affordable_existing: List[PlanT],
                 possible: List[PlanT],
                 selection: PlanSelection) -> NegotiationResult[PlanT]:
    """Some or all plans fit the budget: pick per the selection criterion,
    charge the user's budget at the chosen response time, credit the profit,
    and record Eq. 2 regrets for the plans that are not built yet."""
    chosen = _select(budget, affordable_existing, selection)
    charge = budget.value(chosen.response_time_s)
    profit = max(0.0, charge - chosen.price)

    regrets: List[Tuple[PlanT, float]] = []
    for plan in possible:
        budget_at_plan = budget.value(plan.response_time_s)
        if budget_at_plan <= 0:
            continue
        # Eq. 2 measures the profit the cloud would have made had this plan
        # (and its structures) been available. We take it *relative to* the
        # profit actually made on the chosen plan: only the additional
        # profit is a missed opportunity. This differential reading is what
        # lets the economy "identify the commonly used structures and use
        # them first" (Section IV-C) instead of regretting structures whose
        # plans would be no better than what the cloud already offers.
        # Only affordable plans generate regret (Case C restricts to P_QS).
        regret = (budget_at_plan - plan.price) - profit
        if regret > 0:
            regrets.append((plan, regret))
    return NegotiationResult(
        case=case,
        chosen=chosen,
        charge=charge,
        profit=profit,
        regrets=tuple(regrets),
    )


def _select(budget: BudgetFunction, plans: List[PlanT],
            selection: PlanSelection) -> PlanT:
    if selection is PlanSelection.MIN_PROFIT:
        return min(
            plans,
            key=lambda plan: (
                budget.value(plan.response_time_s) - plan.price,
                plan.response_time_s,
            ),
        )
    if selection is PlanSelection.CHEAPEST:
        return min(plans, key=lambda plan: (plan.price, plan.response_time_s))
    if selection is PlanSelection.FASTEST:
        return min(plans, key=lambda plan: (plan.response_time_s, plan.price))
    raise PlanningError(f"unknown selection criterion: {selection!r}")
