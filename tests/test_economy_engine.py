"""Tests for the economy engine (the paper's core loop, end to end)."""

from collections import Counter

import pytest

from repro.cache.manager import CacheConfig, CacheManager
from repro.costmodel.build import StructureCostModel
from repro.economy.engine import EconomyConfig, EconomyEngine
from repro.economy.negotiation import NegotiationCase, PlanSelection
from repro.economy.user_model import UserModel
from repro.errors import ConfigurationError
from repro.planner.enumerator import EnumeratorConfig, PlanEnumerator
from repro.planner.plan import PlanKind
from repro.structures.base import StructureKind
from repro.structures.cached_column import CachedColumn
from repro.structures.cached_index import CachedIndex
from repro.workload.generator import WorkloadGenerator, WorkloadSpec


def make_engine(execution_model, structure_costs, system, *,
                allow_indexes=True, max_extra_nodes=1, **economy_overrides):
    defaults = dict(
        regret_fraction=0.01,
        amortization_horizon=5_000,
        initial_credit=200.0,
        plan_selection=PlanSelection.CHEAPEST,
        user_model=UserModel(budget_factor=1.3),
    )
    defaults.update(economy_overrides)
    enumerator = PlanEnumerator(
        execution_model,
        candidate_indexes=system.candidate_indexes if allow_indexes else (),
        config=EnumeratorConfig(allow_index_plans=allow_indexes,
                                max_extra_nodes=max_extra_nodes),
    )
    return EconomyEngine(
        enumerator=enumerator,
        structure_costs=structure_costs,
        cache=CacheManager(CacheConfig()),
        config=EconomyConfig(**defaults),
    )


@pytest.fixture
def engine(execution_model, structure_costs, system):
    return make_engine(execution_model, structure_costs, system)


@pytest.fixture
def workload():
    spec = WorkloadSpec(query_count=150, interarrival_s=1.0, seed=1,
                        budget_scale_sigma=0.05)
    return WorkloadGenerator(spec).generate()


class TestSingleQuery:
    def test_cold_cache_serves_from_the_backend(self, engine, sample_query):
        outcome = engine.process_query(sample_query())
        assert outcome.plan_kind is PlanKind.BACKEND
        assert not outcome.served_in_cache
        assert outcome.charge >= outcome.execution_cost
        assert outcome.credit_after >= 200.0  # the cloud never loses money on case B

    def test_generous_budget_yields_profit(self, engine, sample_query):
        outcome = engine.process_query(sample_query(budget_scale=2.0))
        assert outcome.case in (NegotiationCase.B, NegotiationCase.C)
        assert outcome.profit > 0
        assert engine.account.credit > 200.0

    def test_stingy_budget_falls_into_case_a(self, engine, sample_query):
        outcome = engine.process_query(sample_query(budget_scale=0.01))
        assert outcome.case is NegotiationCase.A
        assert outcome.profit == 0.0

    def test_regret_accumulates_for_missing_structures(self, engine, sample_query):
        engine.process_query(sample_query(budget_scale=1.5))
        assert engine.regret_tracker.total() > 0


class TestWorkloadProcessing:
    def test_engine_invests_and_then_serves_from_cache(self, engine, workload):
        outcomes = engine.process_workload(workload)
        builds = [build for outcome in outcomes for build in outcome.builds]
        assert builds, "the economy should have invested in structures"
        assert any(outcome.served_in_cache for outcome in outcomes), \
            "after investing, some queries must run in the cache"

    def test_built_structures_show_up_in_the_cache(self, engine, workload):
        engine.process_workload(workload)
        built_kinds = {entry.structure.kind for entry in engine.cache.entries}
        assert StructureKind.COLUMN in built_kinds

    def test_ledger_matches_outcomes(self, engine, workload):
        outcomes = engine.process_workload(workload)
        totals = engine.account.totals_by_category()
        total_charges = sum(outcome.charge for outcome in outcomes)
        assert totals["query_payment"] == pytest.approx(total_charges)
        assert engine.account.credit >= 0.0

    def test_response_time_improves_after_warmup(self, execution_model, structure_costs,
                                                 system):
        engine = make_engine(execution_model, structure_costs, system)
        spec = WorkloadSpec(query_count=300, interarrival_s=1.0, seed=5,
                            hot_template_count=2, phase_length=1_000)
        workload = WorkloadGenerator(spec).generate()
        outcomes = engine.process_workload(workload)
        first_quarter = [o.response_time_s for o in outcomes[:75]]
        last_quarter = [o.response_time_s for o in outcomes[-75:]]
        assert sum(last_quarter) / 75 <= sum(first_quarter) / 75

    def test_outcomes_are_recorded_in_order(self, engine, workload):
        engine.process_workload(workload[:10])
        assert [o.query.query_id for o in engine.outcomes] == list(range(10))


class TestSchemeRestrictions:
    def test_column_only_engine_builds_no_indexes(self, execution_model, structure_costs,
                                                  system, workload):
        engine = make_engine(execution_model, structure_costs, system,
                             allow_indexes=False, max_extra_nodes=0)
        engine.process_workload(workload)
        kinds = {entry.structure.kind for entry in engine.cache.entries}
        assert StructureKind.INDEX not in kinds
        assert StructureKind.CPU_NODE not in kinds

    def test_investment_can_be_disabled(self, execution_model, structure_costs, system,
                                        workload):
        engine = make_engine(execution_model, structure_costs, system,
                             max_investments_per_query=0)
        outcomes = engine.process_workload(workload)
        assert all(not outcome.builds for outcome in outcomes)
        assert not engine.cache.entries

    def test_conservative_provider_never_overdraws(self, execution_model, structure_costs,
                                                   system, workload):
        engine = make_engine(execution_model, structure_costs, system,
                             initial_credit=5.0)
        engine.process_workload(workload)
        assert engine.account.credit >= 0.0


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"amortization_horizon": 0},
        {"initial_credit": -1.0},
        {"max_investments_per_query": -1},
        {"regret_pool_capacity": 0},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            EconomyConfig(**kwargs)


class TestSafeWithdrawShortfall:
    """Regression: a capped withdrawal must surface, not vanish silently."""

    def test_shortfall_is_recorded_per_category(self, execution_model,
                                                structure_costs, system):
        engine = make_engine(execution_model, structure_costs, system,
                             initial_credit=2.0)
        shortfall = engine._safe_withdraw(5.0, 0.0, "execution_cost")
        assert shortfall == pytest.approx(3.0)
        assert engine.account.credit == 0.0
        assert engine._uncovered == [("execution_cost", pytest.approx(3.0))]

    def test_covered_withdrawal_reports_no_shortfall(self, execution_model,
                                                     structure_costs, system):
        engine = make_engine(execution_model, structure_costs, system,
                             initial_credit=10.0)
        assert engine._safe_withdraw(5.0, 0.0, "execution_cost") == 0.0
        assert engine._uncovered == []

    def test_outcome_surfaces_uncovered_costs(self, execution_model,
                                              structure_costs, system,
                                              workload):
        """With the conservative-provider rule off, builds can outrun the
        credit; the gap must show up on the triggering query's outcome."""
        engine = make_engine(execution_model, structure_costs, system,
                             initial_credit=0.5,
                             require_affordable_build=False)
        outcomes = engine.process_workload(workload)
        uncovered = [outcome for outcome in outcomes if outcome.uncovered_costs]
        assert uncovered, "expected at least one capped withdrawal"
        for outcome in uncovered:
            assert outcome.uncovered_total > 0
            for category, amount in outcome.uncovered_costs:
                assert amount > 0
                assert category in ("execution_cost", "structure_build")
        # The account itself never went negative despite the shortfalls.
        assert engine.account.credit >= 0.0

    def test_fully_funded_run_reports_nothing(self, execution_model,
                                              structure_costs, system,
                                              workload):
        engine = make_engine(execution_model, structure_costs, system,
                             initial_credit=200.0)
        outcomes = engine.process_workload(workload[:30])
        assert all(outcome.uncovered_costs == () for outcome in outcomes)


class CountingStructureCosts(StructureCostModel):
    """Counts ``build_cost`` evaluations per (structure, missing columns)."""

    def __init__(self, execution_model):
        super().__init__(execution_model)
        self.calls = Counter()

    def build_cost(self, structure, cached_columns=None):
        missing = None
        if isinstance(structure, CachedIndex):
            available = cached_columns or set()
            missing = frozenset(column.key
                                for column in structure.required_columns()
                                if column.key not in available)
        self.calls[(structure.key, missing)] += 1
        return super().build_cost(structure, cached_columns=cached_columns)


class TestBuildCostMemo:
    def test_each_build_cost_is_evaluated_once(self, execution_model,
                                               structure_costs, system,
                                               workload):
        """Scalar pricing, batched pricing, the investment rule and the
        builds themselves all read one memo."""
        counting = CountingStructureCosts(execution_model)
        engine = make_engine(execution_model, counting, system,
                             planning="batched")
        reference = make_engine(execution_model, structure_costs, system)
        half = len(workload) // 2
        # Unprimed queries take the scalar path; primed ones the batched.
        outcomes = engine.process_workload(workload[:half])
        scalar_calls = sum(counting.calls.values())
        engine.prime_queries(workload[half:], settlement_period_s=60.0)
        outcomes += engine.process_workload(workload[half:])

        assert engine._plan_tables is not None
        assert len(engine._plan_tables) > 0
        assert any(outcome.builds for outcome in outcomes)
        assert scalar_calls > 0
        assert counting.calls and set(counting.calls.values()) == {1}
        assert outcomes == reference.process_workload(workload)


class TestSpotCostMemo:
    """The investment rule's spot costs are memoized across queries; each
    change a build cost depends on must reach the next query's estimate."""

    def test_price_shock_reprices_the_next_estimate(self, engine):
        column = CachedColumn("lineitem", "l_shipdate")
        before = engine._spot_cost_estimator()(column)
        engine.apply_price_shock(3.0)
        assert engine._spot_cost_estimator()(column) == before * 3.0

    def test_admitted_and_evicted_columns_reprice_an_index(
            self, engine, structure_costs):
        index = CachedIndex("lineitem", ("l_shipdate",))
        (key_column,) = index.required_columns()
        cold = engine._spot_cost_estimator()(index)
        engine.cache.admit(
            key_column, size_bytes=key_column.size_bytes(structure_costs.schema),
            build_cost=1.0, maintenance_rate=0.0, now=0.0)
        warm = engine._spot_cost_estimator()(index)
        assert warm < cold  # the key column no longer has to be transferred
        engine.cache.evict(key_column.key, now=1.0)
        assert engine._spot_cost_estimator()(index) == cold

    def test_memoized_estimates_match_fresh_pricing_through_shocks(
            self, engine, workload):
        """Every estimate the rule reads over a run with a price-shock
        window and an invalidation equals the unmemoized spot price."""
        checked = []
        consider = engine._investment.candidates

        def checking_candidates(tracker, account, build_cost_of,
                                built_keys=()):
            def fresh(structure):
                cost = build_cost_of(structure)
                assert cost == engine._pricer.build_cost(
                    structure, engine._available_column_keys()
                ) * engine._price_factor
                checked.append(structure.key)
                return cost
            return consider(tracker, account, fresh, built_keys)

        engine._investment.candidates = checking_candidates
        third = len(workload) // 3
        engine.process_workload(workload[:third])
        engine.apply_price_shock(2.5)
        engine.process_workload(workload[third:2 * third])
        engine.apply_price_shock(1.0)
        engine.invalidate_structures("", now=workload[2 * third].arrival_time)
        outcomes = engine.process_workload(workload[2 * third:])
        assert checked and any(outcome.builds for outcome in outcomes)
