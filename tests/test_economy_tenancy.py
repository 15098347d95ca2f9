"""Tests for the multi-tenant economy: registry, isolation, conservation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.manager import CacheConfig, CacheManager
from repro.economy.account import CloudAccount
from repro.economy.engine import EconomyConfig, EconomyEngine
from repro.economy.negotiation import PlanSelection
from repro.economy.tenancy import (
    DEFAULT_TENANT_ID,
    TenantProfile,
    TenantRegistry,
)
from repro.economy.user_model import UserModel
from repro.errors import EconomyError
from repro.planner.enumerator import EnumeratorConfig, PlanEnumerator
from repro.structures.cached_column import CachedColumn
from repro.workload.generator import WorkloadGenerator, WorkloadSpec


def make_tenant_engine(execution_model, structure_costs, system, registry,
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
        tenants=registry,
    )


class TestTenantProfile:
    def test_rejects_empty_id(self):
        with pytest.raises(EconomyError):
            TenantProfile("")

    def test_rejects_negative_credit(self):
        with pytest.raises(EconomyError):
            TenantProfile("a", initial_credit=-1.0)

    def test_rejects_non_positive_multiplier(self):
        with pytest.raises(EconomyError):
            TenantProfile("a", budget_multiplier=0.0)


class TestTenantRegistry:
    def test_register_and_lookup(self):
        registry = TenantRegistry()
        state = registry.register(TenantProfile("alice", initial_credit=5.0))
        assert registry.state("alice") is state
        assert "alice" in registry
        assert len(registry) == 1

    def test_duplicate_registration_rejected(self):
        registry = TenantRegistry()
        registry.register(TenantProfile("alice"))
        with pytest.raises(EconomyError):
            registry.register(TenantProfile("alice"))

    def test_ensure_auto_registers_neutral_profile(self):
        registry = TenantRegistry()
        state = registry.ensure(DEFAULT_TENANT_ID)
        assert state.account.credit == 0.0
        assert state.profile.budget_multiplier == 1.0
        assert registry.ensure(DEFAULT_TENANT_ID) is state

    def test_unknown_tenant_raises(self):
        with pytest.raises(EconomyError):
            TenantRegistry().state("ghost")

    def test_lifecycle(self):
        registry = TenantRegistry()
        registry.register(TenantProfile("a"))
        registry.register(TenantProfile("b"))
        registry.deactivate("a", now=3.0)
        assert registry.active_ids() == ["b"]
        assert registry.state("a").churned_at_s == 3.0
        registry.activate("a", now=5.0)
        assert sorted(registry.active_ids()) == ["a", "b"]
        assert registry.state("a").churned_at_s is None

    def test_charge_goes_into_debt_not_dropped(self):
        registry = TenantRegistry()
        registry.register(TenantProfile("poor", initial_credit=1.0))
        registry.charge("poor", 4.0, now=0.0)
        assert registry.state("poor").account.credit == pytest.approx(-3.0)
        assert registry.total_charged() == pytest.approx(4.0)

    def test_budget_multiplier_scales_budget(self, sample_query):
        from dataclasses import replace

        registry = TenantRegistry()
        registry.register(TenantProfile("big", budget_multiplier=2.0))
        model = UserModel(budget_factor=1.0)
        query = replace(sample_query(), tenant_id="big")
        base = model.budget_for(query, 10.0, 5.0)
        scaled = registry.budget_for(query, 10.0, 5.0, default_model=model)
        assert scaled.value(1.0) == pytest.approx(2.0 * base.value(1.0))

    def test_per_tenant_user_model_overrides_default(self, sample_query):
        from dataclasses import replace

        registry = TenantRegistry()
        registry.register(TenantProfile(
            "vip", user_model=UserModel(budget_factor=3.0)))
        default = UserModel(budget_factor=1.0)
        query = replace(sample_query(), tenant_id="vip")
        budget = registry.budget_for(query, 10.0, 5.0, default_model=default)
        assert budget.value(1.0) == pytest.approx(30.0)

    def test_regret_recorded_and_reset_per_tenant(self):
        registry = TenantRegistry()
        registry.register(TenantProfile("a"))
        column = CachedColumn("lineitem", "l_quantity")
        registry.record_regret("a", [column], 5.0)
        assert registry.state("a").regret.value(column.key) == pytest.approx(5.0)
        registry.reset_regret(column.key)
        assert registry.state("a").regret.value(column.key) == 0.0


class TestCreditConservation:
    @settings(max_examples=60, deadline=None)
    @given(
        seeds=st.lists(
            st.tuples(st.integers(min_value=0, max_value=4),
                      st.floats(min_value=0.0, max_value=25.0,
                                allow_nan=False, allow_infinity=False)),
            min_size=0, max_size=40,
        )
    )
    def test_total_credit_is_conserved_across_the_registry(self, seeds):
        """Wallets plus the provider's receipts always equal the seed total."""
        registry = TenantRegistry()
        initial = 0.0
        for index in range(5):
            credit = 10.0 * index
            registry.register(TenantProfile(f"t{index}", initial_credit=credit))
            initial += credit
        provider = CloudAccount(initial_credit=0.0)
        for tenant_index, amount in seeds:
            registry.charge(f"t{tenant_index}", amount, now=0.0)
            provider.deposit(amount, 0.0, CloudAccount.CATEGORY_QUERY_PAYMENT)
        assert registry.total_credit() + provider.credit == pytest.approx(
            initial, abs=1e-6
        )
        assert registry.total_charged() == pytest.approx(
            provider.credit, abs=1e-6
        )


def _withdrawn(account):
    """The magnitudes of an account's debits, summed in ledger order."""
    return sum(-t.amount for t in account.transactions if t.amount < 0)


class TestWalletMergeAcrossChurn:
    """A wallet churn drops and rematerialises keeps its charged total as
    the left fold a never-dropped wallet gives, so the partition merge
    (``seed - sum of charged totals``) does not drift."""

    SEED = 50.0
    #: Per partition: charged, dropped at churn, rematerialised, charged.
    CHARGES = ((0.1, 0.2, 0.3), (0.7, 1.1, 2.3))

    def test_charged_total_and_merged_balance_are_bitwise_eager(self):
        from repro.distcache.merge import merged_wallets
        from repro.workload.population import (GenerativeProfileSource,
                                               PopulationSpec)

        source = GenerativeProfileSource(PopulationSpec(
            tenant_count=1, initial_credit=self.SEED))
        registries = []
        eager_charged = []
        for before, after, again in self.CHARGES:
            registry = TenantRegistry(source)
            registry.activate("t00000", now=0.0)
            registry.charge("t00000", before, now=1.0)
            registry.charge("t00000", after, now=2.0)
            assert registry.deactivate("t00000", now=3.0) is not None
            assert registry.materialized_tenant_count() == 0
            registry.activate("t00000", now=4.0)
            registry.charge("t00000", again, now=5.0)
            registries.append(registry)
            # The eager reference: one wallet that is never dropped.
            wallet = CloudAccount(initial_credit=self.SEED,
                                  allow_negative=True)
            for amount in (before, after, again):
                wallet.withdraw(amount, 0.0, "tenant_charge")
            eager_charged.append(_withdrawn(wallet))
            population, _ = registry.touched_books()
            assert population[0].charged == _withdrawn(wallet)
        # The rematerialised ledger replays the history as one withdrawal,
        # so its own sum is not the eager one: only the carried fold is.
        replayed = _withdrawn(registries[0].state("t00000").account)
        assert replayed != eager_charged[0]

        merged = merged_wallets(registries, steps=())
        assert merged.credit_of("t00000") == \
            self.SEED - (0.0 + eager_charged[0] + eager_charged[1])


class TestEngineTenantIsolation:
    @pytest.fixture
    def registry(self):
        registry = TenantRegistry()
        registry.register(TenantProfile("rich", initial_credit=100.0,
                                        budget_multiplier=1.5))
        registry.register(TenantProfile("poor", initial_credit=5.0,
                                        budget_multiplier=0.8))
        return registry

    @pytest.fixture
    def tenant_engine(self, execution_model, structure_costs, system, registry):
        return make_tenant_engine(execution_model, structure_costs, system,
                                  registry)

    @pytest.fixture
    def mixed_workload(self):
        spec = WorkloadSpec(query_count=80, interarrival_s=1.0, seed=3)
        queries = WorkloadGenerator(spec).generate()
        from dataclasses import replace
        return [
            replace(query,
                    tenant_id="rich" if query.query_id % 2 == 0 else "poor")
            for query in queries
        ]

    def test_tenants_never_cross_fund(self, tenant_engine, registry,
                                      mixed_workload):
        """Each wallet decreases by exactly its own charges, nothing else."""
        outcomes = tenant_engine.process_workload(mixed_workload)
        by_tenant = {"rich": 0.0, "poor": 0.0}
        for outcome in outcomes:
            by_tenant[outcome.tenant_id] += outcome.charge
        assert 100.0 - registry.state("rich").account.credit == pytest.approx(
            by_tenant["rich"], abs=1e-9
        )
        assert 5.0 - registry.state("poor").account.credit == pytest.approx(
            by_tenant["poor"], abs=1e-9
        )

    def test_wallet_ledgers_only_reference_own_queries(self, tenant_engine,
                                                       registry,
                                                       mixed_workload):
        outcomes = tenant_engine.process_workload(mixed_workload)
        ids = {"rich": set(), "poor": set()}
        for outcome in outcomes:
            ids[outcome.tenant_id].add(f"query {outcome.query.query_id} ")
        poor_notes = [t.note for t in registry.state("poor").account.transactions
                      if t.amount < 0]
        for note in poor_notes:
            assert any(note.startswith(prefix) for prefix in ids["poor"])
            assert not any(note.startswith(prefix) for prefix in ids["rich"])

    def test_builds_are_paid_by_the_provider_not_wallets(self, tenant_engine,
                                                         registry,
                                                         mixed_workload):
        tenant_engine.process_workload(mixed_workload)
        for tenant in registry.states():
            categories = {t.category for t in tenant.account.transactions}
            assert CloudAccount.CATEGORY_BUILD not in categories

    def test_conservation_end_to_end(self, tenant_engine, registry,
                                     mixed_workload):
        """Seed wallets == wallets left + everything the provider received."""
        outcomes = tenant_engine.process_workload(mixed_workload)
        total_charges = sum(outcome.charge for outcome in outcomes)
        assert registry.total_credit() + total_charges == pytest.approx(
            105.0, abs=1e-6
        )

    def test_per_tenant_regret_is_attributed(self, tenant_engine, registry,
                                             mixed_workload):
        tenant_engine.process_workload(mixed_workload)
        total = (registry.state("rich").regret.total()
                 + registry.state("poor").regret.total())
        # The global tracker decays/resets on builds exactly like the
        # per-tenant ones, so attribution can only exist if regret flowed.
        assert total >= 0.0
        outcomes = tenant_engine.outcomes
        assert {outcome.tenant_id for outcome in outcomes} == {"rich", "poor"}

    def test_single_tenant_engine_is_unchanged(self, execution_model,
                                               structure_costs, system):
        """Without a registry the engine reports the default tenant only."""
        engine = make_tenant_engine(execution_model, structure_costs, system,
                                    registry=None)
        queries = WorkloadGenerator(
            WorkloadSpec(query_count=10, interarrival_s=1.0, seed=3)
        ).generate()
        outcomes = engine.process_workload(queries)
        assert engine.tenants is None
        assert all(outcome.tenant_id == DEFAULT_TENANT_ID
                   for outcome in outcomes)
