"""Unit tests for the investment rule (Eq. 3)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.economy.account import CloudAccount
from repro.economy.investment import InvestmentPolicy
from repro.economy.regret import RegretTracker
from repro.errors import ConfigurationError
from repro.structures.cached_column import CachedColumn


@pytest.fixture
def column():
    return CachedColumn("lineitem", "l_shipdate")


class TestInvestScore:
    def test_eq3_rounding(self):
        policy = InvestmentPolicy(regret_fraction=0.1)
        # round(regret / (a * CR)): CR=100, a=0.1 -> threshold scale 10
        assert policy.invest_score(4.9, 100.0) == 0
        assert policy.invest_score(5.0, 100.0) == 0  # round-half-to-even at 0.5
        assert policy.invest_score(6.0, 100.0) == 1
        assert policy.invest_score(25.0, 100.0) == 2

    def test_zero_credit_means_no_score(self):
        policy = InvestmentPolicy(regret_fraction=0.5)
        assert policy.invest_score(100.0, 0.0) == 0

    def test_negative_regret_rejected(self):
        with pytest.raises(ConfigurationError):
            InvestmentPolicy().invest_score(-1.0, 10.0)

    def test_fraction_must_be_in_open_interval(self):
        with pytest.raises(ConfigurationError):
            InvestmentPolicy(regret_fraction=0.0)
        with pytest.raises(ConfigurationError):
            InvestmentPolicy(regret_fraction=1.0)


class TestEvaluate:
    def test_should_build_when_regret_and_credit_allow(self, column):
        policy = InvestmentPolicy(regret_fraction=0.1)
        account = CloudAccount(initial_credit=100.0)
        decision = policy.evaluate(column, regret=20.0, build_cost=50.0, account=account)
        assert decision.should_build
        assert decision.invest_score >= 1
        assert decision.affordable

    def test_unaffordable_build_is_blocked(self, column):
        policy = InvestmentPolicy(regret_fraction=0.1)
        account = CloudAccount(initial_credit=10.0)
        decision = policy.evaluate(column, regret=20.0, build_cost=50.0, account=account)
        assert not decision.should_build
        assert not decision.affordable

    def test_affordability_check_can_be_disabled(self, column):
        policy = InvestmentPolicy(regret_fraction=0.1, require_affordable=False)
        account = CloudAccount(initial_credit=10.0)
        decision = policy.evaluate(column, regret=20.0, build_cost=50.0, account=account)
        assert decision.should_build

    def test_low_regret_is_not_built(self, column):
        policy = InvestmentPolicy(regret_fraction=0.5)
        account = CloudAccount(initial_credit=100.0)
        decision = policy.evaluate(column, regret=1.0, build_cost=1.0, account=account)
        assert not decision.should_build


class TestCandidates:
    def test_candidates_sorted_by_regret_and_filtered(self, column):
        policy = InvestmentPolicy(regret_fraction=0.1)
        account = CloudAccount(initial_credit=100.0)
        tracker = RegretTracker()
        other = CachedColumn("lineitem", "l_discount")
        built = CachedColumn("lineitem", "l_quantity")
        tracker.add(column, 30.0)
        tracker.add(other, 60.0)
        tracker.add(built, 90.0)

        decisions = policy.candidates(
            tracker, account,
            build_cost_of=lambda structure: 5.0,
            built_keys={built.key},
        )
        keys = [decision.structure.key for decision in decisions]
        assert keys == [other.key, column.key]
        assert all(decision.should_build for decision in decisions)

    def test_candidates_respect_affordability(self, column):
        policy = InvestmentPolicy(regret_fraction=0.1)
        account = CloudAccount(initial_credit=1.0)
        tracker = RegretTracker()
        tracker.add(column, 50.0)
        decisions = policy.candidates(
            tracker, account, build_cost_of=lambda structure: 10.0,
        )
        assert decisions == []

    def test_empty_tracker_gives_no_candidates(self):
        policy = InvestmentPolicy()
        account = CloudAccount(initial_credit=100.0)
        assert policy.candidates(RegretTracker(), account,
                                 build_cost_of=lambda s: 1.0) == []


# -- candidates() against the scan-and-evaluate reference ---------------------

POOL = [CachedColumn("lineitem", name) for name in (
    "l_quantity", "l_discount", "l_shipdate", "l_tax", "l_extendedprice",
    "l_returnflag", "l_linestatus", "l_orderkey")]


def reference_candidates(policy, tracker, account, build_cost_of,
                         built_keys=()):
    """Eq. 3 as a plain scan: score every tracked structure through
    ``invest_score``, price every one that qualifies and keep the
    decisions ``evaluate`` says to build, in descending regret."""
    credit = account.credit
    qualifying = [(key, regret) for key, regret in tracker.items()
                  if policy.invest_score(regret, credit) >= 1]
    qualifying.sort(key=lambda item: -item[1])
    decisions = []
    for key, regret in qualifying:
        if key in built_keys:
            continue
        structure = tracker.structure(key)
        if structure is None:
            continue
        decision = policy.evaluate(structure, regret,
                                   build_cost_of(structure), account)
        if decision.should_build:
            decisions.append(decision)
    return decisions


def bits(decisions):
    return [(d.structure.key, d.regret.hex(), d.invest_score,
             d.build_cost.hex(), d.affordable) for d in decisions]


def around(value):
    """``value`` and its neighbours one ulp either side."""
    return [math.nextafter(value, -math.inf), value,
            math.nextafter(value, math.inf)]


@st.composite
def investment_cases(draw):
    # Power-of-two fractions and credits make a * CR exact, so the
    # boundary regrets below divide to exactly 0.5 and 1.5.
    fraction = draw(st.sampled_from([0.5, 0.25, 0.1, 0.3]))
    minimum_credit = draw(st.sampled_from([1e-9, 0.5]))
    credit = draw(st.one_of(
        st.sampled_from([0.0, 5e-10, 1e-9, 0.25, 0.5, 1.0, 8.0, 64.0]),
        st.floats(min_value=0.0, max_value=1e4)))
    scale = fraction * credit
    boundaries = around(0.5 * scale) + around(1.5 * scale)
    regrets = st.one_of(
        st.sampled_from([max(r, 0.0) for r in boundaries]),
        st.floats(min_value=0.0, max_value=8 * scale + 1.0))
    operations = draw(st.lists(st.one_of(
        st.tuples(st.just("add"), st.integers(0, len(POOL) - 1), regrets),
        st.tuples(st.just("reset"), st.integers(0, len(POOL) - 1),
                  st.just(0.0))), max_size=24))
    pool_capacity = draw(st.one_of(st.none(), st.integers(1, 6)))
    costs = draw(st.lists(st.one_of(
        st.sampled_from(around(credit) + [credit + 1e-12, 0.0]),
        st.floats(min_value=0.0, max_value=2 * credit + 1.0)),
        min_size=len(POOL), max_size=len(POOL)))
    built = draw(st.sets(st.sampled_from([c.key for c in POOL]), max_size=3))
    return dict(
        fraction=fraction, minimum_credit=minimum_credit, credit=credit,
        operations=operations, pool_capacity=pool_capacity,
        costs={column.key: cost for column, cost in zip(POOL, costs)},
        built=built,
        require_affordable=draw(st.booleans()),
        allow_negative=draw(st.booleans()),
    )


class TestCandidatesMatchTheReference:
    @settings(max_examples=300, deadline=None)
    @given(case=investment_cases())
    def test_decision_lists_are_identical(self, case):
        policy = InvestmentPolicy(
            regret_fraction=case["fraction"],
            require_affordable=case["require_affordable"],
            minimum_credit=case["minimum_credit"])
        account = CloudAccount(initial_credit=case["credit"],
                               allow_negative=case["allow_negative"])
        # A small pool forgets structures: they drop out of the scan.
        tracker = RegretTracker(pool_capacity=case["pool_capacity"])
        for operation, index, amount in case["operations"]:
            if operation == "add":
                tracker.add(POOL[index], amount)
            else:
                tracker.reset(POOL[index].key)
        costs = case["costs"]

        def cost_of(structure):
            return costs[structure.key]

        expected = reference_candidates(policy, tracker, account, cost_of,
                                        case["built"])
        actual = policy.candidates(tracker, account, cost_of,
                                   built_keys=case["built"])
        assert bits(actual) == bits(expected)
        assert all(decision.should_build for decision in actual)

    @pytest.mark.parametrize("ratio, score", [(0.5, 0), (1.5, 2)])
    def test_round_half_even_boundaries(self, ratio, score):
        # a * CR = 0.5 * 8.0 = 4.0 exactly: regret 2.0 is a ratio of
        # exactly 0.5, regret 6.0 exactly 1.5.
        policy = InvestmentPolicy(regret_fraction=0.5)
        account = CloudAccount(initial_credit=8.0)
        below, exact, above = around(ratio * 4.0)
        assert policy.invest_score(exact, 8.0) == score
        assert policy.invest_score(below, 8.0) == int(ratio)
        assert policy.invest_score(above, 8.0) == int(ratio) + 1
        for regret in (below, exact, above):
            tracker = RegretTracker()
            tracker.add(POOL[0], regret)
            actual = policy.candidates(tracker, account, lambda s: 1.0)
            assert bits(actual) == bits(reference_candidates(
                policy, tracker, account, lambda s: 1.0))
            assert bool(actual) == (policy.invest_score(regret, 8.0) >= 1)
