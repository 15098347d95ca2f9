"""Unit tests for the case A/B/C plan negotiation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.costmodel.execution import ExecutionEstimate
from repro.economy.budget import ConcaveBudget, ConvexBudget, StepBudget
from repro.economy.engine import _RowCandidate
from repro.economy.negotiation import (
    NegotiationCase,
    PlanSelection,
    negotiate,
)
from repro.economy.pricing import PricedPlan
from repro.errors import PlanningError
from repro.planner.plan import PlanKind, QueryPlan
from repro.structures.cached_column import CachedColumn
from repro.workload.templates import template_by_name


def make_priced(query, label_column, price, response, existing):
    """Build a PricedPlan stub with controlled price/time/existence."""
    estimate = ExecutionEstimate(
        cost_units=1.0, io_operations=1.0, cpu_seconds=1.0, network_bytes=0.0,
        response_time_s=response, cpu_dollars=price, io_dollars=0.0,
        network_dollars=0.0,
    )
    if existing:
        plan = QueryPlan(query=query, kind=PlanKind.BACKEND, execution=estimate)
        new_structures = ()
    else:
        column = CachedColumn("lineitem", label_column)
        plan = QueryPlan(query=query, kind=PlanKind.CACHE_COLUMN_SCAN,
                         execution=estimate, structures=(column,))
        new_structures = (column,)
    return PricedPlan(
        plan=plan,
        execution_dollars=price,
        amortized_dollars=0.0,
        maintenance_dollars=0.0,
        new_structures=new_structures,
        amortized_by_structure={},
    )


@pytest.fixture
def query():
    return template_by_name("q6_forecast_revenue").instantiate(0, 0.0)


class TestCaseA:
    def test_unaffordable_plans_fall_back_to_cheapest_existing(self, query):
        existing = make_priced(query, "l_shipdate", price=10.0, response=5.0, existing=True)
        possible = make_priced(query, "l_discount", price=4.0, response=2.0, existing=False)
        budget = StepBudget(amount=1.0, max_time_s=100.0)
        result = negotiate(budget, [existing, possible])
        assert result.case is NegotiationCase.A
        assert result.chosen is existing
        assert result.charge == pytest.approx(10.0)
        assert result.profit == 0.0

    def test_case_a_regret_follows_eq1(self, query):
        existing = make_priced(query, "l_shipdate", price=10.0, response=5.0, existing=True)
        cheaper = make_priced(query, "l_discount", price=4.0, response=2.0, existing=False)
        pricier = make_priced(query, "l_quantity", price=15.0, response=1.0, existing=False)
        budget = StepBudget(amount=1.0, max_time_s=100.0)
        result = negotiate(budget, [existing, cheaper, pricier])
        regrets = dict((plan.plan.structures[0].column_name, value)
                       for plan, value in result.regrets)
        assert regrets == {"l_discount": pytest.approx(6.0)}


class TestCaseB:
    def test_all_affordable_charges_the_budget(self, query):
        fast = make_priced(query, "l_shipdate", price=5.0, response=2.0, existing=True)
        slow = make_priced(query, "l_discount", price=2.0, response=8.0, existing=True)
        budget = StepBudget(amount=20.0, max_time_s=100.0)
        result = negotiate(budget, [fast, slow], PlanSelection.MIN_PROFIT)
        assert result.case is NegotiationCase.B
        # min-profit picks the plan whose (budget - price) gap is smallest: `fast`.
        assert result.chosen is fast
        assert result.charge == pytest.approx(20.0)
        assert result.profit == pytest.approx(15.0)

    def test_cheapest_selection(self, query):
        fast = make_priced(query, "l_shipdate", price=5.0, response=2.0, existing=True)
        slow = make_priced(query, "l_discount", price=2.0, response=8.0, existing=True)
        budget = StepBudget(amount=20.0, max_time_s=100.0)
        result = negotiate(budget, [fast, slow], PlanSelection.CHEAPEST)
        assert result.chosen is slow

    def test_fastest_selection(self, query):
        fast = make_priced(query, "l_shipdate", price=5.0, response=2.0, existing=True)
        slow = make_priced(query, "l_discount", price=2.0, response=8.0, existing=True)
        budget = StepBudget(amount=20.0, max_time_s=100.0)
        result = negotiate(budget, [fast, slow], PlanSelection.FASTEST)
        assert result.chosen is fast

    def test_case_b_regret_is_differential_profit(self, query):
        existing = make_priced(query, "l_shipdate", price=6.0, response=5.0, existing=True)
        possible = make_priced(query, "l_discount", price=1.0, response=2.0, existing=False)
        budget = StepBudget(amount=10.0, max_time_s=100.0)
        result = negotiate(budget, [existing, possible], PlanSelection.CHEAPEST)
        assert result.case is NegotiationCase.B
        # profit on chosen = 10 - 6 = 4; possible plan's profit would be 9.
        assert len(result.regrets) == 1
        assert result.regrets[0][1] == pytest.approx(5.0)

    def test_no_regret_for_plans_that_would_not_help(self, query):
        existing = make_priced(query, "l_shipdate", price=2.0, response=5.0, existing=True)
        worse = make_priced(query, "l_discount", price=3.0, response=6.0, existing=False)
        budget = StepBudget(amount=10.0, max_time_s=100.0)
        result = negotiate(budget, [existing, worse], PlanSelection.CHEAPEST)
        assert result.regrets == ()


class TestCaseC:
    def test_partial_affordability(self, query):
        affordable = make_priced(query, "l_shipdate", price=5.0, response=2.0, existing=True)
        too_expensive = make_priced(query, "l_discount", price=50.0, response=1.0,
                                    existing=True)
        budget = StepBudget(amount=10.0, max_time_s=100.0)
        result = negotiate(budget, [affordable, too_expensive], PlanSelection.CHEAPEST)
        assert result.case is NegotiationCase.C
        assert result.chosen is affordable

    def test_plans_beyond_tmax_generate_no_regret(self, query):
        existing = make_priced(query, "l_shipdate", price=5.0, response=2.0, existing=True)
        too_slow = make_priced(query, "l_discount", price=1.0, response=500.0,
                               existing=False)
        budget = StepBudget(amount=10.0, max_time_s=100.0)
        result = negotiate(budget, [existing, too_slow], PlanSelection.CHEAPEST)
        assert result.regrets == ()


class TestEdgeCases:
    def test_requires_an_existing_plan(self, query):
        possible = make_priced(query, "l_discount", price=1.0, response=1.0, existing=False)
        budget = StepBudget(amount=10.0, max_time_s=100.0)
        with pytest.raises(PlanningError):
            negotiate(budget, [possible])

    def test_profit_is_never_negative(self, query):
        existing = make_priced(query, "l_shipdate", price=5.0, response=2.0, existing=True)
        budget = StepBudget(amount=5.0, max_time_s=100.0)
        result = negotiate(budget, [existing], PlanSelection.MIN_PROFIT)
        assert result.profit >= 0.0


class TestRowCandidates:
    """The batched planner negotiates over light row candidates; they must
    give exactly what the materialised PricedPlans give."""

    # Few distinct values, so exact price ties and time ties are common.
    rows = st.lists(
        st.tuples(st.sampled_from([1.0, 2.5, 4.0, 6.0, 9.0]),
                  st.sampled_from([1.0, 2.0, 30.0, 80.0, 150.0]),
                  st.booleans()),
        min_size=1, max_size=8,
    ).filter(lambda drawn: any(existing for _, _, existing in drawn))
    budgets = st.builds(
        lambda kind, amount, max_time_s: kind(amount=amount,
                                              max_time_s=max_time_s),
        st.sampled_from([StepBudget, ConvexBudget, ConcaveBudget]),
        st.sampled_from([0.5, 3.0, 5.0, 12.0]),
        st.sampled_from([60.0, 100.0]),
    )

    @given(drawn=rows, budget=budgets,
           selection=st.sampled_from(list(PlanSelection)))
    def test_same_result_as_priced_plans(self, drawn, budget, selection):
        query = template_by_name("q6_forecast_revenue").instantiate(0, 0.0)
        priced = [make_priced(query, "l_shipdate", price, response, existing)
                  for price, response, existing in drawn]
        candidates = [_RowCandidate(price, response, existing, row)
                      for row, (price, response, existing) in enumerate(drawn)]

        by_plan = negotiate(budget, priced, selection)
        by_row = negotiate(budget, candidates, selection)
        # Tied plans compare equal, so positions go by identity.
        row_of = {id(plan): row for row, plan in enumerate(priced)}

        assert by_row.case is by_plan.case
        assert by_row.charge == by_plan.charge
        assert by_row.profit == by_plan.profit
        assert row_of[id(by_plan.chosen)] == by_row.chosen.row
        assert ([(row_of[id(plan)], regret)
                 for plan, regret in by_plan.regrets]
                == [(candidate.row, regret)
                    for candidate, regret in by_row.regrets])
