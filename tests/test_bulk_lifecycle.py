"""Bulk tenant lifecycle against a per-tenant reference model.

A population stream announces its tenants in cohorts: one arrival marker
over the initial population, then per churn wave one arrival marker over
the freshly minted range and one churn marker over the leavers. The
registry applies a cohort in bulk (ownership mask, live mask, running
live count). The model here replays the same markers one tenant at a
time, with a plain live set and a seed fold in mint order, and the
registry — plain or scoped to any shard — must agree with it after every
marker, bitwise.
"""

from dataclasses import replace

import pytest
import wallet_oracle as oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distcache import DistCacheRunner
from repro.economy.tenancy import TenantRegistry, WalletBook
from repro.economy.user_model import UserModel
from repro.errors import EconomyError, WorkloadError
from repro.experiments.tenants import (
    ARRIVAL_STREAMED,
    TenantExperimentConfig,
    run_tenant_cell,
    tenant_aggregate_table,
    top_tenant_table,
)
from repro.obs.trace import TraceRecorder
from repro.policies.economic import EconomicSchemeConfig
from repro.sharding import (ShardCoordinator, ShardScopedRegistry,
                            TenantPartitioner)
from repro.sharding.merge import merge_shard_wallets
from repro.simulator.events import TenantArrivalEvent, TenantChurnEvent
from repro.simulator.handlers import SchemeTenant
from repro.simulator.kernel import SimulationKernel
from repro.simulator.metrics import MetricsCollector
from repro.system import CloudSystem
from repro.workload.generator import WorkloadGenerator, WorkloadSpec
from repro.workload.grammar import TenantTier
from repro.workload.population import (
    GenerativeProfileSource,
    PopulationSpec,
    TenantLifecycleMarker,
    TenantPopulation,
    tenant_id_for,
)

TIERS = (
    TenantTier(name="gold", weight=1.0, budget_multiplier=1.5,
               credit_multiplier=2.0),
    TenantTier(name="silver", weight=2.0),
    TenantTier(name="bronze", weight=3.0, budget_multiplier=0.6,
               credit_multiplier=0.3),
)


class ReferenceModel:
    """One registry's books, kept one tenant at a time."""

    def __init__(self, source, owns):
        self._source = source
        self._owns = owns
        self.minted = 0
        self.live = set()
        self.held = set()
        self.seed_total = 0.0
        self.credit = {}
        self.charged = {}
        self.peak_materialized = 0
        self.churned_ledgers_folded = 0

    def _mint_through(self, index):
        while self.minted <= index:
            if self._owns(self.minted):
                seed = self._source.initial_credit_for(self.minted)
                self.seed_total += seed
                self.credit[self.minted] = seed
                self.charged[self.minted] = 0.0
            self.minted += 1

    def arrive(self, index):
        self._mint_through(index)
        if self._owns(index):
            self.live.add(index)

    def leave(self, index):
        if index >= self.minted or not self._owns(index):
            return
        self.live.discard(index)
        if index in self.held:
            self.held.discard(index)
            self.churned_ledgers_folded += 1

    def charge(self, index, amount):
        self._mint_through(index)
        if not self._owns(index):
            return
        self.held.add(index)
        self.peak_materialized = max(self.peak_materialized, len(self.held))
        self.credit[index] -= amount
        self.charged[index] += amount

    def wallet_books(self):
        return {tenant_id_for(index): WalletBook(
                    self._source.initial_credit_for(index),
                    self.credit[index], self.charged[index])
                for index in sorted(self.credit)}


def _assert_agrees(registry, model):
    assert registry.live_tenant_count() == len(model.live)
    assert registry.active_ids() == [tenant_id_for(index)
                                     for index in sorted(model.live)]
    assert registry.seed_credit() == model.seed_total  # bitwise
    assert registry.materialized_tenant_count() == len(model.held)


@settings(max_examples=60, deadline=None)
@given(tenant_count=st.integers(min_value=1, max_value=300),
       churn_period=st.integers(min_value=0, max_value=30),
       churn_fraction=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
       tiered=st.booleans(),
       budget_sigma=st.sampled_from([0.0, 0.3, 1.0]),
       initial_credit=st.sampled_from([50.0, 0.1, 7.3]),
       query_count=st.integers(min_value=1, max_value=90),
       shard_count=st.integers(min_value=1, max_value=3),
       seed=st.integers(min_value=0, max_value=2**16))
def test_bulk_lifecycle_matches_the_per_tenant_model(
        tenant_count, churn_period, churn_fraction, tiered, budget_sigma,
        initial_credit, query_count, shard_count, seed):
    spec = PopulationSpec(tenant_count=tenant_count,
                          churn_period=churn_period,
                          churn_fraction=churn_fraction,
                          budget_sigma=budget_sigma,
                          initial_credit=initial_credit, seed=seed)
    source = GenerativeProfileSource(spec=spec,
                                     tiers=TIERS if tiered else ())
    partitioner = TenantPartitioner(shard_count)
    registries = [TenantRegistry(source)] + [
        ShardScopedRegistry(source, partitioner, shard)
        for shard in range(shard_count)]
    models = [ReferenceModel(source, lambda index: True)] + [
        ReferenceModel(source, lambda index, shard=shard:
                       partitioner.shard_of(tenant_id_for(index)) == shard)
        for shard in range(shard_count)]
    queries = WorkloadGenerator(WorkloadSpec(
        query_count=query_count, interarrival_s=1.0,
        seed=seed)).iter_queries()
    model_budget = UserModel()

    for item in TenantPopulation(spec).stream(queries, source=source):
        if isinstance(item, TenantLifecycleMarker):
            for registry, model in zip(registries, models):
                if item.kind == "arrival":
                    registry.activate(item.tenants, now=item.time_s)
                    for index in item.tenants:
                        model.arrive(index)
                else:
                    registry.deactivate(item.tenants, now=item.time_s)
                    for index in item.tenants:
                        model.leave(index)
                _assert_agrees(registry, model)
            continue
        index = int(item.tenant_id[1:])
        # Exact binary fractions keep the expected balances exact too.
        amount = 0.25 * (1 + item.query_id % 4)
        for registry, model in zip(registries, models):
            registry.budget_for(item, 10.0, 4.0, model_budget)
            registry.charge(item.tenant_id, amount, now=item.arrival_time)
            model.charge(index, amount)

    for registry, model in zip(registries, models):
        _assert_agrees(registry, model)
        assert oracle.wallet_books(registry) == model.wallet_books()
        assert list(registry.wallets().items()) == [
            (tenant_id, book.credit)
            for tenant_id, book in model.wallet_books().items()]
        assert registry.peak_materialized == model.peak_materialized
        assert (registry.churned_ledgers_folded
                == model.churned_ledgers_folded)
        assert registry.churned_ledger_mismatches == 0

    # The shards' wallets together are the unsharded registry's.
    plain, shards = registries[0], registries[1:]
    assert oracle.merged_shard_wallets(shards) \
        == list(oracle.credit_by_tenant(plain).items())
    assert merge_shard_wallets([(shard.wallets(), shard.adhoc_ranks())
                                for shard in shards]) == plain.wallets()
    books = {}
    for shard in shards:
        books.update(oracle.wallet_books(shard))
    assert books == oracle.wallet_books(plain)
    assert sum(len(shard) for shard in shards) == len(plain)


class TestCohortCounters:
    """Kernel events count cohorts; the scheme tenant counts tenants."""

    def test_scheme_tenant_counts_tenants_not_events(self):
        source = GenerativeProfileSource(spec=PopulationSpec(
            tenant_count=5, initial_credit=10.0))
        registry = TenantRegistry(source)
        scheme = CloudSystem().scheme(
            "econ-cheap",
            economic_config=EconomicSchemeConfig(tenants=registry))
        tenant = SchemeTenant(scheme, MetricsCollector(scheme.name))
        kernel = SimulationKernel()
        tenant.register(kernel)
        kernel.schedule(TenantArrivalEvent(time_s=0.0, tenants=range(5)))
        kernel.schedule(TenantArrivalEvent(time_s=1.0,
                                           tenants=range(5, 8)))
        kernel.schedule(TenantChurnEvent(time_s=1.0, tenants=(0, 3, 4)))
        assert kernel.run() == 3
        assert kernel.dispatch_count(TenantArrivalEvent) == 2
        assert kernel.dispatch_count(TenantChurnEvent) == 1
        assert tenant.tenant_arrivals_seen == 8
        assert tenant.tenant_churns_seen == 3
        assert registry.live_tenant_count() == 5
        assert registry.active_ids() == [tenant_id_for(index)
                                         for index in (1, 2, 5, 6, 7)]

    def test_single_tenant_scheme_counts_tenants_too(self):
        scheme = CloudSystem().scheme("bypass")
        tenant = SchemeTenant(scheme, MetricsCollector(scheme.name))
        kernel = SimulationKernel()
        tenant.register(kernel)
        kernel.schedule(TenantArrivalEvent(time_s=0.0, tenants=range(4)))
        kernel.schedule(TenantChurnEvent(time_s=0.0, tenants=(1, 2)))
        kernel.run()
        assert (tenant.tenant_arrivals_seen,
                tenant.tenant_churns_seen) == (4, 2)


class TestArrivalCohortsAreRanges:
    """Arrivals are minted in index order, so the registry takes an
    arrival cohort as a step-1 range and applies it by slice."""

    def test_scattered_arrivals_are_rejected(self):
        registry = TenantRegistry(GenerativeProfileSource(
            spec=PopulationSpec(tenant_count=4)))
        for scattered in ((0, 2), [0, 1], range(0, 4, 2)):
            with pytest.raises(EconomyError):
                registry.activate(scattered, now=0.0)
            with pytest.raises(WorkloadError):
                TenantLifecycleMarker(0.0, scattered, "arrival")
        TenantLifecycleMarker(0.0, (0, 2), "churn")

    def test_one_population_id_is_a_one_index_range(self):
        source = GenerativeProfileSource(spec=PopulationSpec(
            tenant_count=4, initial_credit=10.0))
        by_id, by_range = TenantRegistry(source), TenantRegistry(source)
        for registry, arrival in ((by_id, tenant_id_for(2)),
                                  (by_range, range(2, 3))):
            registry.activate(arrival, now=0.0)
            registry.ensure(tenant_id_for(2))
            registry.deactivate(tenant_id_for(2), now=1.0)
            assert registry.activate(arrival, now=2.0) is None
        assert by_id.active_ids() == by_range.active_ids() == ["t00002"]
        assert by_id.live_tenant_count() == by_range.live_tenant_count() == 1
        assert oracle.wallet_books(by_id) == oracle.wallet_books(by_range)
        assert by_id.wallets() == by_range.wallets()


class TestParityAtPopulationScale:
    """Large waves — 3,000 tenants in and 3,000 out at once — print the
    same tables in every execution mode, and gauge the same books."""

    CONFIG = TenantExperimentConfig(
        scheme="econ-cheap", tenant_count=6000, query_count=300,
        churn_period=50, churn_fraction=0.5, settlement_period_s=500.0,
        seed=0)

    #: ``(time_s, live_tenants, materialized_tenants, wallet_credit,
    #: wallet_charged)`` at every barrier, pinned from a run of the
    #: one-event-per-tenant lifecycle that cohorts replaced.
    GAUGES = [
        (500.0, 6000, 16, 449995.9442729539, 4.055727046088354),
        (1000.0, 6000, 18, 599991.7185823492, 8.28141765071922),
        (1500.0, 6000, 32, 749987.0962027678, 12.90379723217175),
        (2000.0, 6000, 31, 899982.8011107431, 17.198889256881024),
        (2500.0, 6000, 34, 1049978.315740318, 21.684259681918032),
        (3000.0, 6000, 66, 1049973.7086673167, 26.291332683286484),
        (3000.0, 6000, 66, 1049973.7086673167, 26.291332683286484),
    ]

    @staticmethod
    def _tables(cell):
        return tenant_aggregate_table(cell) + top_tenant_table(cell)

    def test_every_mode_prints_the_same_tables(self):
        metrics = TraceRecorder(events=False, samples=True)
        eager = run_tenant_cell(self.CONFIG, recorder=metrics)
        assert (eager.population_size, eager.churn_waves) == (21000, 15000)
        expected = self._tables(eager)
        streamed = replace(self.CONFIG, arrival_mode=ARRIVAL_STREAMED)
        cells = [
            run_tenant_cell(streamed),
            ShardCoordinator(2).run_cell(streamed).cell,
            ShardCoordinator(3).run_cell(streamed).cell,
            DistCacheRunner(1).run_cell(self.CONFIG).cell,
        ]
        for cell in cells:
            assert self._tables(cell) == expected
            assert cell.wallet_credit == eager.wallet_credit
        assert [(sample["time_s"], sample["live_tenants"],
                 sample["materialized_tenants"], sample["wallet_credit"],
                 sample["wallet_charged"])
                for sample in metrics.samples] == self.GAUGES
