"""Property-based tests (hypothesis) on the core data structures and invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.lru import LruTracker
from repro.costmodel.amortization import DecliningAmortization, UniformAmortization
from repro.costmodel.scaling import cpu_overhead_factor, speedup_factor
from repro.economy.account import CloudAccount
from repro.economy.budget import ConcaveBudget, ConvexBudget, StepBudget
from repro.economy.regret import RegretTracker
from repro.planner.skyline import skyline_filter
from repro.pricing.catalog import ResourcePricing
from repro.structures.cached_column import CachedColumn


# --- budget functions -------------------------------------------------------------

budget_amounts = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
budget_deadlines = st.floats(min_value=1e-3, max_value=1e5, allow_nan=False)
budget_shapes = st.sampled_from([StepBudget, ConvexBudget, ConcaveBudget])


@given(shape=budget_shapes, amount=budget_amounts, deadline=budget_deadlines,
       times=st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=2, max_size=20))
def test_budget_functions_are_non_increasing(shape, amount, deadline, times):
    budget = shape(amount, deadline)
    ordered = sorted(times)
    values = [budget.value(t) for t in ordered]
    assert all(later <= earlier + 1e-9 for earlier, later in zip(values, values[1:]))


@given(shape=budget_shapes, amount=budget_amounts, deadline=budget_deadlines,
       time=st.floats(min_value=1e-6, max_value=1e6))
def test_budget_values_are_bounded_by_the_amount(shape, amount, deadline, time):
    value = shape(amount, deadline).value(time)
    assert 0.0 <= value <= amount + 1e-9


# --- skyline filter ----------------------------------------------------------------

points = st.tuples(st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
                   st.floats(min_value=0.0, max_value=1e4, allow_nan=False))


@given(st.lists(points, min_size=1, max_size=40))
def test_skyline_members_are_mutually_non_dominating(candidates):
    result = skyline_filter(candidates, time_of=lambda p: p[0], cost_of=lambda p: p[1])
    assert result, "a non-empty input always has at least one skyline point"
    for first in result:
        for second in result:
            if first is second:
                continue
            dominates = (first[0] <= second[0] and first[1] <= second[1]
                         and (first[0] < second[0] or first[1] < second[1]))
            assert not dominates


@given(st.lists(points, min_size=1, max_size=40))
def test_every_input_is_dominated_by_or_equal_to_a_skyline_point(candidates):
    result = skyline_filter(candidates, time_of=lambda p: p[0], cost_of=lambda p: p[1])
    for candidate in candidates:
        assert any(member[0] <= candidate[0] + 1e-9 and member[1] <= candidate[1] + 1e-9
                   for member in result)


# --- amortisation ---------------------------------------------------------------------

@given(build_cost=st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
       horizon=st.integers(min_value=1, max_value=500))
def test_uniform_amortization_never_overcharges(build_cost, horizon):
    policy = UniformAmortization(horizon)
    total = sum(policy.charge(build_cost, served) for served in range(horizon + 50))
    assert total <= build_cost + 1e-6


@given(build_cost=st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
       fraction=st.floats(min_value=0.01, max_value=0.9),
       served=st.integers(min_value=0, max_value=200))
def test_declining_amortization_charges_are_non_negative_and_decreasing(build_cost,
                                                                        fraction, served):
    policy = DecliningAmortization(fraction)
    current = policy.charge(build_cost, served)
    following = policy.charge(build_cost, served + 1)
    assert current >= 0.0
    assert following <= current + 1e-9


# --- multi-node scaling -----------------------------------------------------------------

@given(nodes=st.integers(min_value=1, max_value=16),
       fraction=st.floats(min_value=0.0, max_value=1.0))
def test_scaling_invariants(nodes, fraction):
    speedup = speedup_factor(nodes, fraction)
    overhead = cpu_overhead_factor(nodes)
    assert speedup >= 1.0 - 1e-12
    assert overhead >= 1.0
    assert speedup <= nodes + 1e-9  # never super-linear


# --- LRU tracker ---------------------------------------------------------------------------

@given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=200),
       st.integers(min_value=1, max_value=8))
def test_lru_tracker_respects_capacity_and_recency(keys, capacity):
    lru = LruTracker(capacity=capacity)
    for key in keys:
        lru.touch(key)
    assert len(lru) <= capacity
    order = lru.in_lru_order()
    assert order[-1] == keys[-1]          # the last touched key is the most recent
    assert len(set(order)) == len(order)  # no duplicates


# --- regret tracker --------------------------------------------------------------------------

column_names = st.sampled_from(["l_shipdate", "l_discount", "l_quantity", "l_tax"])


@given(st.lists(st.tuples(column_names,
                          st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
                max_size=100))
def test_regret_total_equals_sum_of_added_amounts(events):
    tracker = RegretTracker(pool_capacity=None)
    expected = 0.0
    for name, amount in events:
        tracker.add(CachedColumn("lineitem", name), amount)
        expected += amount
    assert tracker.total() == pytest.approx(expected)


# --- cloud account -----------------------------------------------------------------------------

@given(st.lists(st.tuples(st.booleans(),
                          st.floats(min_value=0.0, max_value=1e4, allow_nan=False)),
                max_size=100),
       st.floats(min_value=0.0, max_value=1e4, allow_nan=False))
def test_account_balance_always_matches_the_ledger(operations, seed):
    account = CloudAccount(initial_credit=seed, allow_negative=True)
    for is_deposit, amount in operations:
        if is_deposit:
            account.deposit(amount, 0.0, "in")
        else:
            account.withdraw(amount, 0.0, "out")
    assert account.credit == pytest.approx(
        sum(t.amount for t in account.transactions))


# --- pricing ----------------------------------------------------------------------------------

@given(factor=st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
def test_scaling_prices_scales_derived_rates(factor):
    base = ResourcePricing()
    scaled = base.scaled(factor)
    assert scaled.network_byte == pytest.approx(factor * base.network_byte)
    assert scaled.disk_byte_second == pytest.approx(factor * base.disk_byte_second)


import pytest  # noqa: E402  (used by pytest.approx inside hypothesis bodies)
