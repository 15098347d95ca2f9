"""Tests for market-shock fault injection: events, handlers, engine hooks."""

import pytest

from repro.cache.manager import CacheConfig, CacheManager
from repro.economy.account import CloudAccount
from repro.economy.engine import EconomyConfig, EconomyEngine
from repro.economy.negotiation import PlanSelection
from repro.economy.user_model import UserModel
from repro.errors import ConfigurationError, SimulationError
from repro.planner.enumerator import EnumeratorConfig, PlanEnumerator
from repro.simulator.events import (
    EventQueue,
    MaintenanceSettlementEvent,
    ProviderPriceShockEvent,
    QueryArrivalEvent,
    StructureFailureCheckEvent,
    StructureInvalidationEvent,
    TenantBudgetSqueezeEvent,
)
from repro.simulator.simulation import CloudSimulation, SimulationConfig
from repro.workload.generator import WorkloadGenerator, WorkloadSpec


def make_engine(execution_model, structure_costs, system,
                **economy_overrides):
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
        candidate_indexes=system.candidate_indexes,
        config=EnumeratorConfig(allow_index_plans=True, max_extra_nodes=1),
    )
    return EconomyEngine(
        enumerator=enumerator,
        structure_costs=structure_costs,
        cache=CacheManager(CacheConfig()),
        config=EconomyConfig(**defaults),
    )


@pytest.fixture
def workload():
    spec = WorkloadSpec(query_count=80, interarrival_s=2.0, seed=13,
                        budget_scale_sigma=0.05)
    return WorkloadGenerator(spec).generate()


def query_payment_conservation(engine) -> bool:
    """The bitwise fold identity: provider deposits == outcome charges."""
    banked = engine.account.totals_by_category().get(
        CloudAccount.CATEGORY_QUERY_PAYMENT, 0.0)
    charged = 0.0
    for outcome in engine.outcomes:
        charged += outcome.charge
    return banked == charged


class TestShockEventValidation:
    def test_price_shock_factor_must_be_positive(self):
        with pytest.raises(SimulationError):
            ProviderPriceShockEvent(time_s=1.0, factor=0.0)
        with pytest.raises(SimulationError):
            TenantBudgetSqueezeEvent(time_s=1.0, factor=-2.0)

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            StructureInvalidationEvent(time_s=-1.0)

    def test_documented_priority_ladder(self):
        assert (MaintenanceSettlementEvent.priority
                < StructureInvalidationEvent.priority
                < ProviderPriceShockEvent.priority
                < TenantBudgetSqueezeEvent.priority
                < StructureFailureCheckEvent.priority
                < QueryArrivalEvent.priority)


class TestSameInstantDispatchOrder:
    def test_shocks_dispatch_after_settlement_before_queries(
            self, sample_query):
        queue = EventQueue()
        # Pushed deliberately out of order; all at the same instant.
        queue.push(QueryArrivalEvent(time_s=5.0, query=sample_query()))
        queue.push(TenantBudgetSqueezeEvent(time_s=5.0, factor=0.5))
        queue.push(ProviderPriceShockEvent(time_s=5.0, factor=2.0))
        queue.push(StructureInvalidationEvent(time_s=5.0))
        queue.push(MaintenanceSettlementEvent(time_s=5.0))
        order = [type(queue.pop()) for _ in range(5)]
        assert order == [
            MaintenanceSettlementEvent,
            StructureInvalidationEvent,
            ProviderPriceShockEvent,
            TenantBudgetSqueezeEvent,
            QueryArrivalEvent,
        ]


class TestEngineShockHooks:
    def test_price_shock_sets_the_factor_and_counts(
            self, execution_model, structure_costs, system):
        engine = make_engine(execution_model, structure_costs, system)
        assert engine._price_factor == 1.0
        engine.apply_price_shock(3.0)
        assert engine._price_factor == 3.0
        engine.apply_price_shock(1.0)  # relief
        assert engine._price_factor == 1.0
        with pytest.raises(ConfigurationError):
            engine.apply_price_shock(0.0)

    def test_budget_squeeze_sets_the_factor_and_counts(
            self, execution_model, structure_costs, system):
        engine = make_engine(execution_model, structure_costs, system)
        engine.apply_budget_squeeze(0.5)
        assert engine.budget_factor == 0.5
        with pytest.raises(ConfigurationError):
            engine.apply_budget_squeeze(-1.0)

    def test_invalidation_destroys_matching_structures(
            self, execution_model, structure_costs, system, workload):
        engine = make_engine(execution_model, structure_costs, system)
        engine.process_workload(workload)
        assert engine.cache.entries, "workload should have built structures"
        before = {entry.structure.key for entry in engine.cache.entries}
        now = workload[-1].arrival_time
        records = engine.invalidate_structures("", now)
        assert {record.key for record in records} == before
        assert not engine.cache.entries

    def test_invalidation_predicate_filters_by_key(
            self, execution_model, structure_costs, system, workload):
        engine = make_engine(execution_model, structure_costs, system)
        engine.process_workload(workload)
        keys = {entry.structure.key for entry in engine.cache.entries}
        matching = {key for key in keys if "index" in key}
        records = engine.invalidate_structures(
            "index", workload[-1].arrival_time)
        assert {record.key for record in records} == matching
        survivors = {entry.structure.key for entry in engine.cache.entries}
        assert survivors == keys - matching


class TestStrictMaintenance:
    def test_disabled_policy_is_a_no_op(
            self, execution_model, structure_costs, system, workload):
        engine = make_engine(execution_model, structure_costs, system)
        engine.process_workload(workload)
        assert engine.enforce_maintenance(workload[-1].arrival_time) == ()
        assert engine.cache.entries

    def test_same_instant_enforcement_is_idempotent(
            self, execution_model, structure_costs, system, workload):
        """Regression: a periodic settlement and the trailing final
        settlement can land on the same instant. The second enforcement
        must be a no-op — without the per-instant guard it would see zero
        income since the just-moved mark and shut everything down."""
        engine = make_engine(execution_model, structure_costs, system,
                             strict_maintenance=True)
        engine.process_workload(workload)
        assert engine.cache.entries
        now = workload[-1].arrival_time + 10.0
        engine.enforce_maintenance(now)
        survivors = {entry.structure.key for entry in engine.cache.entries}
        assert engine.enforce_maintenance(now) == ()
        assert {entry.structure.key
                for entry in engine.cache.entries} == survivors

    def test_later_instants_enforce_again(
            self, execution_model, structure_costs, system, workload):
        """The guard is per-instant, not permanent: at a later settlement
        with no income since the mark, accrual forces shutdowns."""
        engine = make_engine(execution_model, structure_costs, system,
                             strict_maintenance=True)
        engine.process_workload(workload)
        assert engine.cache.entries
        end = workload[-1].arrival_time
        engine.enforce_maintenance(end + 10.0)
        records = engine.enforce_maintenance(end + 10_000.0)
        assert records, "idle accrual with zero income must shut down"
        assert all(record.reason == "maintenance_shutdown"
                   for record in records)


class TestSimulationUnderShocks:
    def run_with(self, system, workload, events,
                 settlement_period_s=20.0):
        scheme = system.scheme("econ-cheap")
        result = CloudSimulation(
            scheme,
            SimulationConfig(settlement_period_s=settlement_period_s),
        ).run(workload, shock_events=events)
        return scheme, result

    def test_mid_run_invalidation_books_eviction_losses(
            self, system, workload):
        mid = workload[len(workload) // 2].arrival_time
        _, clean = self.run_with(system, workload, ())
        scheme, shocked = self.run_with(
            system, workload,
            (StructureInvalidationEvent(time_s=mid),))
        assert shocked.summary.evictions > clean.summary.evictions
        assert shocked.summary.eviction_losses > clean.summary.eviction_losses
        assert query_payment_conservation(scheme.engine)

    def test_price_shock_window_conserves_credit(self, system, workload):
        mid = workload[len(workload) // 2].arrival_time
        end = workload[-1].arrival_time
        scheme, result = self.run_with(
            system, workload,
            (ProviderPriceShockEvent(time_s=mid, factor=4.0),
             ProviderPriceShockEvent(time_s=min(mid + 40.0, end),
                                     factor=1.0)))
        assert result.summary.query_count == len(workload)
        assert query_payment_conservation(scheme.engine)
        assert scheme.engine._price_factor == 1.0  # relief restored spot

    def test_budget_squeeze_window_conserves_credit(self, system, workload):
        mid = workload[len(workload) // 2].arrival_time
        end = workload[-1].arrival_time
        scheme, result = self.run_with(
            system, workload,
            (TenantBudgetSqueezeEvent(time_s=mid, factor=0.4),
             TenantBudgetSqueezeEvent(time_s=min(mid + 40.0, end),
                                      factor=1.0)))
        assert result.summary.query_count == len(workload)
        assert query_payment_conservation(scheme.engine)
        assert scheme.engine.budget_factor == 1.0

    def test_full_shock_sequence_conserves_credit(self, system, workload):
        span = workload[-1].arrival_time - workload[0].arrival_time
        first = workload[0].arrival_time
        events = (
            StructureInvalidationEvent(time_s=first + 0.35 * span,
                                       predicate="index"),
            ProviderPriceShockEvent(time_s=first + 0.5 * span, factor=3.0),
            ProviderPriceShockEvent(time_s=first + 0.7 * span, factor=1.0),
            TenantBudgetSqueezeEvent(time_s=first + 0.65 * span, factor=0.5),
            TenantBudgetSqueezeEvent(time_s=first + 0.9 * span, factor=1.0),
        )
        scheme, result = self.run_with(system, workload, events)
        assert result.summary.query_count == len(workload)
        assert query_payment_conservation(scheme.engine)
        # Both windows closed: spot prices and full budgets again.
        assert scheme.engine._price_factor == 1.0
        assert scheme.engine.budget_factor == 1.0

    def test_price_shock_scales_the_maintenance_rate(self, system, workload):
        scheme = system.scheme("econ-cheap")
        CloudSimulation(scheme).run(workload)
        base = scheme.maintenance_rate()
        assert base > 0, "built structures should accrue maintenance"
        scheme.apply_price_shock(2.0, workload[-1].arrival_time)
        assert scheme.maintenance_rate() == pytest.approx(2.0 * base)
