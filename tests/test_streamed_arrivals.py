"""The million-tenant execution mode: generative profiles + streamed arrivals.

Pins the two contracts the bounded-memory path rests on:

* **fidelity** — streamed cells (and sharded streamed runs) are
  byte-identical to the eager path over the same config, and a
  :class:`GenerativeProfileSource` derives exactly the profile the eager
  ``populate()`` path mints for every ``(seed, tenant index)``, including
  churn replacements and SLA-tier rewrites (Hypothesis-swept);
* **boundedness** — full tenant states materialise lazily, drop at
  churn, and the streaming arrival source keeps only a lookahead window
  of the workload inside the kernel.
"""

import pytest

from repro.economy.tenancy import TenantProfile, TenantRegistry
from repro.economy.user_model import UserModel
from repro.errors import EconomyError, ExperimentError, SimulationError, \
    WorkloadError
from repro.experiments.tenants import (
    ARRIVAL_EAGER,
    ARRIVAL_STREAMED,
    TenantExperimentConfig,
    run_tenant_cell,
    run_tenant_experiment,
    tenant_aggregate_table,
    top_tenant_table,
)
from repro.sharding import ShardScopedRegistry, TenantPartitioner
from repro.simulator.streaming import StreamingArrivalSource
from repro.workload.generator import WorkloadGenerator, WorkloadSpec
from repro.workload.grammar import TenantTier, apply_tenant_tiers
from repro.workload.population import (
    GenerativeProfileSource,
    PopulationSpec,
    TenantLifecycleMarker,
    TenantPopulation,
    tenant_id_for,
    tenant_index_of,
)
from repro.workload.query import Query

QUICK = dict(tenant_count=10, query_count=80, interarrival_s=5.0, seed=2,
             churn_period=25, churn_fraction=0.2,
             settlement_period_s=150.0)

TIERS = (
    TenantTier("basic", weight=3.0),
    TenantTier("gold", weight=1.0, budget_multiplier=1.8,
               credit_multiplier=2.0),
)


def _workload(query_count=80, seed=2, interarrival_s=5.0):
    return WorkloadGenerator(WorkloadSpec(
        query_count=query_count, interarrival_s=interarrival_s, seed=seed))


def _rendered(cell):
    """Everything the CLI prints for a cell, plus the raw ledgers."""
    return (
        tenant_aggregate_table(cell),
        top_tenant_table(cell, limit=5),
        cell.summary,
        cell.tenants,
        cell.wallet_credit,
        cell.population_size,
        cell.churn_waves,
    )


class TestTenantIdScheme:
    def test_round_trip(self):
        for index in (0, 7, 99_999, 1_000_000):
            assert tenant_index_of(tenant_id_for(index)) == index

    def test_ad_hoc_ids_never_alias(self):
        for tenant_id in ("default", "alice", "t12", "t-0001", "txyz",
                          "t00001x", ""):
            assert tenant_index_of(tenant_id) is None


class TestGenerativeProfileEquivalence:
    """profile_for(i) == the i-th profile the eager path mints."""

    def _eager_profiles(self, spec, tiers=(), query_count=120):
        queries = _workload(query_count=query_count,
                            seed=spec.seed).generate()
        populated = TenantPopulation(spec).populate(queries)
        if tiers:
            populated = apply_tenant_tiers(populated, tiers, seed=spec.seed)
        return populated.profiles

    def test_matches_eager_including_churn_replacements(self):
        spec = PopulationSpec(tenant_count=8, budget_sigma=0.4,
                              churn_period=20, churn_fraction=0.25, seed=3)
        profiles = self._eager_profiles(spec)
        assert len(profiles) > spec.tenant_count  # churn minted replacements
        source = GenerativeProfileSource(spec=spec)
        for index, expected in enumerate(profiles):
            assert source.profile_for(index) == expected

    def test_matches_eager_under_tier_rewrites(self):
        spec = PopulationSpec(tenant_count=8, budget_sigma=0.3,
                              churn_period=30, churn_fraction=0.25, seed=5)
        profiles = self._eager_profiles(spec, tiers=TIERS)
        source = GenerativeProfileSource(spec=spec, tiers=TIERS)
        for index, expected in enumerate(profiles):
            assert source.profile_for(index) == expected

    def test_derivation_is_order_independent(self):
        # Tenant i's profile must not depend on which (or how many)
        # profiles were derived before it — the O(1) access contract.
        spec = PopulationSpec(tenant_count=4, budget_sigma=0.5, seed=9)
        source = GenerativeProfileSource(spec=spec, tiers=TIERS)
        backwards = [source.profile_for(i) for i in reversed(range(12))]
        forwards = [source.profile_for(i) for i in range(12)]
        assert list(reversed(backwards)) == forwards

    def test_profiles_are_static(self):
        source = GenerativeProfileSource(spec=PopulationSpec(tenant_count=4))
        assert source.profile_for(3).joined_at_s == 0.0

    def test_rejects_negative_index(self):
        source = GenerativeProfileSource(spec=PopulationSpec(tenant_count=4))
        with pytest.raises(WorkloadError):
            source.profile_for(-1)


class TestGenerativeProfileProperty:
    """Hypothesis sweep of the generative == eager profile identity."""

    hypothesis = pytest.importorskip("hypothesis")

    def test_swept_specs_match(self):
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        @settings(max_examples=20, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(
            seed=st.integers(min_value=0, max_value=50),
            tenant_count=st.integers(min_value=2, max_value=9),
            sigma=st.sampled_from((0.0, 0.3, 0.8)),
            churn=st.booleans(),
            tiered=st.booleans(),
        )
        def check(seed, tenant_count, sigma, churn, tiered):
            spec = PopulationSpec(
                tenant_count=tenant_count, budget_sigma=sigma, seed=seed,
                churn_period=15 if churn else 0, churn_fraction=0.3)
            tiers = TIERS if tiered else ()
            queries = _workload(query_count=60, seed=seed).generate()
            populated = TenantPopulation(spec).populate(queries)
            if tiers:
                populated = apply_tenant_tiers(populated, tiers, seed=seed)
            source = GenerativeProfileSource(spec=spec, tiers=tiers)
            for index, expected in enumerate(populated.profiles):
                assert source.profile_for(index) == expected
                assert source.initial_credit_for(index) \
                    == expected.initial_credit

        check()


class TestPopulationStream:
    def test_drain_equals_populate(self):
        spec = PopulationSpec(tenant_count=6, churn_period=20,
                              churn_fraction=0.25, seed=4)
        queries = _workload(query_count=100, seed=4).generate()
        populated = TenantPopulation(spec).populate(queries)

        stream = TenantPopulation(spec).stream(iter(queries))
        markers, streamed_queries = [], []
        for item in stream:
            if isinstance(item, TenantLifecycleMarker):
                markers.append(item)
            else:
                streamed_queries.append(item)
        assert tuple(streamed_queries) == populated.queries
        assert tuple(markers) == populated.lifecycle
        assert stream.tenants_minted == populated.tenant_count
        assert stream.churn_events == populated.churn_waves
        assert stream.queries_emitted == len(populated.queries)

    def test_chunked_draws_are_chunk_size_invariant(self):
        from repro.workload.population import PopulationStream

        spec = PopulationSpec(tenant_count=5, churn_period=17,
                              churn_fraction=0.3, seed=7)
        queries = _workload(query_count=90, seed=7).generate()
        baseline = list(PopulationStream(spec, iter(queries)))
        for chunk in (1, 3, 64, 10_000):
            again = list(PopulationStream(spec, iter(queries),
                                          chunk_size=chunk))
            assert again == baseline

    def test_stream_is_single_use(self):
        stream = TenantPopulation(PopulationSpec(tenant_count=3)).stream(
            iter(_workload(query_count=10).generate()))
        list(stream)
        with pytest.raises(WorkloadError):
            list(stream)

    def test_empty_workload_rejected(self):
        stream = TenantPopulation(PopulationSpec(tenant_count=3)).stream(
            iter(()))
        with pytest.raises(WorkloadError):
            list(stream)


class TestGenerativeTenantRegistry:
    """A :class:`TenantRegistry` over a generative profile source."""

    SPEC = PopulationSpec(tenant_count=6, initial_credit=10.0,
                          budget_sigma=0.4, seed=11)

    def _registry(self):
        return TenantRegistry(GenerativeProfileSource(spec=self.SPEC))

    def test_arrivals_mint_no_state(self):
        registry = self._registry()
        for index in range(4):
            registry.activate(tenant_id_for(index), now=0.0)
        assert registry.materialized_tenant_count() == 0
        assert registry.live_tenant_count() == 4
        assert registry.population_minted == 4
        assert registry.total_credit() == pytest.approx(40.0)

    def test_state_materialises_at_first_charge(self):
        registry = self._registry()
        registry.activate("t00000", now=0.0)
        registry.charge("t00000", 2.5, now=1.0)
        assert registry.materialized_tenant_count() == 1
        assert registry.total_charged() == pytest.approx(2.5)
        assert registry.state("t00000").account.credit \
            == pytest.approx(7.5)

    def test_churn_drops_state_and_keeps_balance(self):
        registry = self._registry()
        registry.activate("t00000", now=0.0)
        registry.charge("t00000", 2.5, now=1.0)
        departed = registry.deactivate("t00000", now=2.0)
        assert departed is not None and not departed.active
        assert registry.materialized_tenant_count() == 0
        assert registry.live_tenant_count() == 0
        # The balance survives the drop (archive of two floats).
        assert registry.credit_by_tenant()["t00000"] == pytest.approx(7.5)
        assert registry.total_credit() == pytest.approx(7.5)
        assert registry.total_charged() == pytest.approx(2.5)

    def test_rematerialization_is_exact_across_re_arrival(self):
        registry = self._registry()
        registry.activate("t00001", now=0.0)
        registry.charge("t00001", 3.25, now=1.0)
        before = registry.state("t00001").account.credit
        registry.deactivate("t00001", now=2.0)
        registry.activate("t00001", now=3.0)  # the tenant returns
        registry.charge("t00001", 1.0, now=4.0)
        state = registry.state("t00001")
        assert state.active
        assert state.account.credit == before - 1.0  # bitwise resume
        assert registry.total_charged() == pytest.approx(4.25)

    def test_never_charged_churn_needs_no_archive(self):
        registry = self._registry()
        registry.activate("t00002", now=0.0)
        registry.deactivate("t00002", now=1.0)
        assert registry.materialized_tenant_count() == 0
        # Rematerialisation is pure: the balance is simply the seed.
        source = GenerativeProfileSource(spec=self.SPEC)
        assert registry.credit_by_tenant()["t00002"] \
            == source.initial_credit_for(2)

    def test_population_ids_cannot_be_registered_explicitly(self):
        registry = self._registry()
        with pytest.raises(EconomyError):
            registry.register(TenantProfile("t00003", initial_credit=1.0))

    def test_ad_hoc_ids_use_the_eager_path(self):
        registry = self._registry()
        registry.register(TenantProfile("alice", initial_credit=5.0))
        registry.charge("alice", 1.0, now=0.0)
        assert registry.credit_by_tenant()["alice"] == pytest.approx(4.0)
        assert "alice" in registry

    def test_peak_materialized_tracks_high_water(self):
        registry = self._registry()
        for index in range(4):
            registry.activate(tenant_id_for(index), now=0.0)
            registry.charge(tenant_id_for(index), 1.0, now=0.5)
        registry.deactivate("t00000", now=1.0)
        registry.deactivate("t00001", now=1.0)
        assert registry.materialized_tenant_count() == 2
        assert registry.peak_materialized == 4

    def test_budget_matches_eager_registry_bitwise(self):
        source = GenerativeProfileSource(spec=self.SPEC)
        eager = TenantRegistry()
        generative = self._registry()
        model = UserModel()
        for index in range(6):
            tenant_id = tenant_id_for(index)
            eager.register(source.profile_for(index))
            generative.activate(tenant_id, now=0.0)
            query = _probe_query(tenant_id)
            expected = eager.budget_for(query, 10.0, 4.0, model)
            observed = generative.budget_for(query, 10.0, 4.0, model)
            assert type(observed) is type(expected)
            assert repr(observed) == repr(expected)


def _probe_query(tenant_id: str) -> Query:
    return Query(query_id=0, template_name="t", table_name="lineitem",
                 predicates=(), projection_columns=("l_quantity",),
                 tenant_id=tenant_id)


class TestGenerativeShardForeignBudget:
    """The satellite bugfix: foreign budgets need no profile table."""

    SPEC = PopulationSpec(tenant_count=6, initial_credit=10.0,
                          budget_sigma=0.5, churn_period=10,
                          churn_fraction=0.3, seed=13)

    def test_foreign_budget_derives_without_preregistered_profiles(self):
        source = GenerativeProfileSource(spec=self.SPEC)
        partitioner = TenantPartitioner(2)
        shards = [ShardScopedRegistry(source, partitioner, i)
                  for i in range(2)]
        model = UserModel()
        # Mint well past the initial population — churn replacements —
        # on every shard, exactly as the replicated arrival stream would.
        for index in range(12):
            for registry in shards:
                registry.activate(tenant_id_for(index), now=float(index))
        for index in range(12):
            tenant_id = tenant_id_for(index)
            query = _probe_query(tenant_id)
            owner = partitioner.shard_of(tenant_id)
            expected = shards[owner].budget_for(query, 10.0, 4.0, model)
            foreign = shards[1 - owner].budget_for(query, 10.0, 4.0, model)
            assert type(foreign) is type(expected)
            assert repr(foreign) == repr(expected)

    def test_unminted_population_id_derives_neutral_budget(self):
        # Ids at/beyond the mint high-water mark behave like the eager
        # path's unknown ids: a None profile, i.e. the default curve.
        source = GenerativeProfileSource(spec=self.SPEC)
        partitioner = TenantPartitioner(2)
        registry = ShardScopedRegistry(source, partitioner, 0)
        model = UserModel()
        tenant_id = tenant_id_for(50)
        if partitioner.owns(0, tenant_id):  # pick a foreign id
            registry = ShardScopedRegistry(source, partitioner, 1)
        query = _probe_query(tenant_id)
        observed = registry.budget_for(query, 10.0, 4.0, model)
        neutral = TenantRegistry.derive_budget(None, query, 10.0, 4.0, model)
        assert repr(observed) == repr(neutral)

    def test_foreign_state_never_materialises(self):
        source = GenerativeProfileSource(spec=self.SPEC)
        partitioner = TenantPartitioner(2)
        registry = ShardScopedRegistry(source, partitioner, 0)
        foreign = next(tenant_id_for(i) for i in range(20)
                       if not partitioner.owns(0, tenant_id_for(i)))
        from repro.errors import ShardingError

        with pytest.raises(ShardingError):
            registry.ensure(foreign)
        registry.activate(foreign, now=0.0)
        registry.charge(foreign, 3.0, now=1.0)
        assert registry.foreign_charged == pytest.approx(3.0)
        assert registry.materialized_tenant_count() == 0
        assert foreign not in registry


class TestStreamingArrivalSource:
    def _stream(self, query_count=40):
        spec = PopulationSpec(tenant_count=4, seed=1)
        generator = _workload(query_count=query_count, seed=1)
        return TenantPopulation(spec).stream(generator.iter_queries())

    def test_lookahead_must_be_positive(self):
        with pytest.raises(SimulationError):
            StreamingArrivalSource(self._stream(), lookahead=0)

    def test_primes_only_once(self):
        from repro.simulator.kernel import SimulationKernel

        source = StreamingArrivalSource(self._stream(), lookahead=8)
        kernel = SimulationKernel()
        source.register(kernel)
        source.prime(kernel)
        with pytest.raises(SimulationError):
            source.prime(kernel)

    def test_prime_schedules_only_the_window(self):
        from repro.simulator.kernel import SimulationKernel

        source = StreamingArrivalSource(self._stream(query_count=40),
                                        lookahead=8)
        kernel = SimulationKernel()
        source.register(kernel)
        source.prime(kernel)
        assert source.events_emitted == 8

    def test_run_drains_the_whole_stream(self):
        from repro.simulator.kernel import SimulationKernel

        stream = self._stream(query_count=30)
        source = StreamingArrivalSource(stream, lookahead=4)
        kernel = SimulationKernel()
        source.register(kernel)
        source.prime(kernel)
        kernel.run()
        # One initial-cohort arrival + 30 queries, through a 4-item window.
        assert source.events_emitted == 31
        assert stream.queries_emitted == 30


class TestStreamedCellEquivalence:
    """The fidelity gate: streamed == eager, byte for byte."""

    def _pair(self, **overrides):
        base = dict(QUICK)
        base.update(overrides)
        eager = TenantExperimentConfig(arrival_mode=ARRIVAL_EAGER, **base)
        streamed = TenantExperimentConfig(arrival_mode=ARRIVAL_STREAMED,
                                          **base)
        return eager, streamed

    def test_econ_cell_byte_identical(self):
        eager, streamed = self._pair(scheme="econ-cheap", budget_sigma=0.3)
        assert _rendered(run_tenant_cell(streamed)) \
            == _rendered(run_tenant_cell(eager))

    def test_bypass_cell_byte_identical(self):
        eager, streamed = self._pair(scheme="bypass")
        assert _rendered(run_tenant_cell(streamed)) \
            == _rendered(run_tenant_cell(eager))

    def test_shocked_tiered_cell_byte_identical(self):
        from repro.workload.grammar import parse_shock

        eager, streamed = self._pair(
            scheme="econ-cheap", budget_sigma=0.4, tenant_tiers=TIERS,
            shocks=(parse_shock("price@0.4:0.3:1.6"),))
        assert _rendered(run_tenant_cell(streamed)) \
            == _rendered(run_tenant_cell(eager))

    def test_sharded_streamed_matches_eager_for_all_shard_counts(self):
        eager, streamed = self._pair(scheme="econ-cheap", budget_sigma=0.3)
        baseline = _rendered(run_tenant_cell(eager))
        for shards in (1, 2, 3, 4):
            merged = run_tenant_experiment([streamed], shards=shards)
            assert _rendered(merged[0]) == baseline

    def test_streamed_batched_matches_eager_scalar(self):
        eager, _ = self._pair(scheme="econ-cheap", budget_sigma=0.3)
        _, streamed = self._pair(scheme="econ-cheap", budget_sigma=0.3,
                                 planning="batched")
        assert _rendered(run_tenant_cell(streamed)) \
            == _rendered(run_tenant_cell(eager))

    def test_unknown_arrival_mode_rejected(self):
        with pytest.raises(ExperimentError):
            TenantExperimentConfig(scheme="econ-cheap",
                                   arrival_mode="psychic", **QUICK)


class TestStreamedCellProperty:
    hypothesis = pytest.importorskip("hypothesis")

    def test_swept_configs_byte_identical(self):
        from hypothesis import HealthCheck, example, given, settings
        from hypothesis import strategies as st

        @settings(max_examples=16, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        # The grammar case, pinned: batched, sharded, churning, settling.
        @example(scheme="econ-cheap", tenant_count=6, query_count=40, seed=1,
                 churn=True, settle=True, planning="batched", shards=2,
                 grammar=True)
        @given(
            scheme=st.sampled_from(("bypass", "econ-cheap")),
            tenant_count=st.integers(min_value=2, max_value=8),
            query_count=st.integers(min_value=10, max_value=50),
            seed=st.integers(min_value=0, max_value=6),
            churn=st.booleans(),
            settle=st.booleans(),
            planning=st.sampled_from(("scalar", "batched")),
            shards=st.sampled_from((1, 2)),
            grammar=st.booleans(),
        )
        def check(scheme, tenant_count, query_count, seed, churn, settle,
                  planning, shards, grammar):
            from repro.workload.grammar import default_shock_grammar

            base = dict(
                scheme=scheme, tenant_count=tenant_count,
                query_count=query_count, seed=seed,
                churn_period=12 if churn else 0, churn_fraction=0.25,
                settlement_period_s=100.0 if settle else None)
            if grammar:
                stock = default_shock_grammar()
                base.update(grammar=stock, shocks=stock.shocks,
                            tenant_tiers=stock.tiers)
            eager = run_tenant_cell(TenantExperimentConfig(
                arrival_mode=ARRIVAL_EAGER, **base))
            streamed = run_tenant_experiment([TenantExperimentConfig(
                arrival_mode=ARRIVAL_STREAMED, planning=planning, **base)],
                shards=shards)[0]
            assert _rendered(streamed) == _rendered(eager)

        check()


class TestBoundedMaterialization:
    def test_registry_stays_bounded_under_churn(self):
        """Resident states stay O(live tenants) while the population grows."""
        from repro.experiments.tenants import TenantCell

        config = TenantExperimentConfig(
            scheme="econ-cheap", tenant_count=8, query_count=200,
            interarrival_s=5.0, seed=6, churn_period=20, churn_fraction=0.25,
            arrival_mode=ARRIVAL_STREAMED)
        spec = config.population_spec()
        cell = TenantCell(config)
        cell.run()
        registry, stream = cell.registry, cell.population
        assert registry.source is not None

        assert stream.tenants_minted > spec.tenant_count  # churn happened
        # Live tenants never exceed the concurrent population, and the
        # resident-state high-water mark stays pinned to it (one wave may
        # overlap while arrival/churn markers share an instant).
        assert registry.live_tenant_count() == spec.tenant_count
        wave = max(1, int(round(spec.churn_fraction * spec.tenant_count)))
        assert registry.peak_materialized <= spec.tenant_count + wave
        assert registry.peak_materialized < stream.tenants_minted


class TestStreamedGauges:
    def test_streamed_metrics_carry_memory_gauges(self):
        from repro.obs.trace import TraceRecorder

        config = TenantExperimentConfig(scheme="econ-cheap",
                                        arrival_mode=ARRIVAL_STREAMED,
                                        **QUICK)
        metrics = TraceRecorder(events=False, samples=True)
        run_tenant_cell(config, recorder=metrics)
        samples = metrics.samples
        assert samples
        assert all("live_tenants" in sample for sample in samples)
        assert all("materialized_tenants" in sample for sample in samples)
        assert all("peak_rss_bytes" in sample for sample in samples)
        assert all(sample["peak_rss_bytes"] > 0 for sample in samples)

    def test_eager_metrics_stay_deterministic(self):
        # The eager path samples live tenants (a pure simulation quantity)
        # but never the OS high-water mark, keeping its emission bitwise
        # reproducible run to run.
        from repro.obs.trace import TraceRecorder

        config = TenantExperimentConfig(scheme="econ-cheap",
                                        arrival_mode=ARRIVAL_EAGER, **QUICK)
        first = TraceRecorder(events=False, samples=True)
        run_tenant_cell(config, recorder=first)
        second = TraceRecorder(events=False, samples=True)
        run_tenant_cell(config, recorder=second)
        assert first.metrics_lines() == second.metrics_lines()
        assert all("live_tenants" in sample for sample in first.samples)
        assert all("peak_rss_bytes" not in sample
                   for sample in first.samples)


class TestBatchedStreamBounds:
    """Batched planning reads the stream one window ahead, never more."""

    def test_scheduler_holds_at_most_one_window(self, monkeypatch):
        from repro.economy.batch import BatchScheduler, DEFAULT_MAX_BATCH_SIZE

        held = []
        original = BatchScheduler.view_for

        def spy(scheduler, query):
            view = original(scheduler, query)
            held.append((scheduler.pending_queries, len(scheduler._ahead)))
            return view

        monkeypatch.setattr(BatchScheduler, "view_for", spy)
        # One window more than the bound, so the cap actually binds.
        config = TenantExperimentConfig(
            scheme="econ-cheap", tenant_count=20,
            query_count=DEFAULT_MAX_BATCH_SIZE + 300, interarrival_s=1.0,
            seed=3, arrival_mode=ARRIVAL_STREAMED, planning="batched")
        run_tenant_cell(config)
        assert len(held) == config.query_count
        assert max(pending for pending, _ in held) \
            == DEFAULT_MAX_BATCH_SIZE - 1
        assert max(pending + ahead for pending, ahead in held) \
            <= DEFAULT_MAX_BATCH_SIZE

    def test_scalar_scheme_sharing_the_run_retains_no_stream_items(self):
        import gc
        import weakref

        from repro.economy.engine import EconomyConfig
        from repro.policies.economic import EconomicSchemeConfig
        from repro.simulator.events import (MaintenanceSettlementEvent,
                                            QueryArrivalEvent,
                                            TenantArrivalEvent,
                                            TenantChurnEvent)
        from repro.simulator.simulation import SimulationConfig, _run_tenants
        from repro.system import CloudSystem

        spec = PopulationSpec(tenant_count=30, churn_period=20,
                              churn_fraction=0.5, seed=1)
        generator = _workload(query_count=600, seed=1, interarrival_s=1.0)
        markers = []

        def tracked():
            stream = TenantPopulation(spec).stream(generator.iter_queries())
            for position, item in enumerate(stream):
                if isinstance(item, TenantLifecycleMarker):
                    markers.append((position, weakref.ref(item)))
                yield item

        leaks = []

        def check(event, kernel):
            dispatched = sum(kernel.dispatch_count(kind) for kind in (
                QueryArrivalEvent, TenantArrivalEvent, TenantChurnEvent))
            gc.collect()
            leaks.extend(position for position, ref in markers
                         if position < dispatched and ref() is not None)

        system = CloudSystem()
        scalar = system.scheme("econ-cheap")
        batched = system.scheme("econ-fast", economic_config=(
            EconomicSchemeConfig(economy=EconomyConfig(planning="batched"))))
        _run_tenants([scalar, batched], tracked(),
                     generator.arrival_envelope(),
                     SimulationConfig(settlement_period_s=50.0),
                     observers=[(MaintenanceSettlementEvent, check)])
        assert markers and not leaks
        assert not scalar.plans_in_batches and batched.plans_in_batches
        assert scalar.engine.plan_tables is None  # never primed


class TestStreamedModeCoverage:
    """Every path that runs a cell honours ``arrival_mode``."""

    def test_audited_shock_cell_streams(self, monkeypatch):
        # Regression: the audited cell used to build the eager population
        # unconditionally, so a streamed config silently ran eager. The
        # kernel must receive the population stream itself, unread.
        from repro.experiments import tenants
        from repro.experiments.shocks import audited_shock_cell
        from repro.workload.grammar import parse_shock
        from repro.workload.population import PopulationStream

        base = dict(QUICK, scheme="econ-cheap",
                    shocks=(parse_shock("price@0.4:0.3:1.6"),))
        eager_cell, eager_audit = audited_shock_cell(
            TenantExperimentConfig(arrival_mode=ARRIVAL_EAGER, **base))

        handed = []
        run = tenants._run_tenants

        def spy(schemes, arrivals, *args, **kwargs):
            handed.append((arrivals, getattr(arrivals, "queries_emitted",
                                             None)))
            return run(schemes, arrivals, *args, **kwargs)

        monkeypatch.setattr(tenants, "_run_tenants", spy)
        cell, audit = audited_shock_cell(
            TenantExperimentConfig(arrival_mode=ARRIVAL_STREAMED, **base))
        [(arrivals, emitted_at_start)] = handed
        assert isinstance(arrivals, PopulationStream)
        assert emitted_at_start == 0
        assert arrivals.queries_emitted == QUICK["query_count"]
        assert audit is not None and audit.exact
        assert audit.query_payments == eager_audit.query_payments
        assert _rendered(cell) == _rendered(eager_cell)

    @staticmethod
    def _stock_shock_config(arrival_mode):
        from repro.workload.grammar import default_shock_grammar

        grammar = default_shock_grammar()
        return TenantExperimentConfig(
            scheme="econ-cheap", tenant_count=40, query_count=300,
            churn_period=40, seed=0, settlement_period_s=50.0,
            shocks=grammar.shocks, tenant_tiers=grammar.tiers,
            grammar=grammar, arrival_mode=arrival_mode)

    def test_streamed_audit_folds_the_wallets_churn_dropped(
            self, monkeypatch):
        from repro.economy import account, tenancy
        from repro.experiments.shocks import audited_shock_cell

        eager_cell, eager_audit = audited_shock_cell(
            self._stock_shock_config(ARRIVAL_EAGER))
        folds = []
        for module in (tenancy, account):
            fold = module.ledger_fold
            monkeypatch.setattr(
                module, "ledger_fold",
                lambda account, fold=fold: folds.append(account) or
                fold(account))
        cell, audit = audited_shock_cell(
            self._stock_shock_config(ARRIVAL_STREAMED))
        assert _rendered(cell) == _rendered(eager_cell)
        assert audit.exact and eager_audit.exact
        # The audit claims exactly the wallet ledgers it folded (the
        # remaining fold is the provider ledger's).
        assert audit.wallets_audited == len(folds) - 1
        # A tenant's first query materialises its wallet, which is then
        # folded each time churn drops it, or at the end if still held:
        # so every tenant with traffic was audited at least once.
        assert audit.wallets_audited >= len(cell.tenants) > 0

    def test_streamed_audit_catches_a_churned_ledger_mismatch(
            self, monkeypatch):
        # A wallet nudged off its ledger just before churn drops it must
        # fail the audit, although it is no longer held at the end.
        from repro.experiments.shocks import audited_shock_cell

        deactivate = TenantRegistry.deactivate
        nudged = []

        def nudge_then_churn(self, tenants, now=0.0):
            for index in tenants:
                state = self._states.get(tenant_id_for(index))
                if (not nudged and state is not None
                        and state.account.total_withdrawn() > 0):
                    state.account._credit += 1e-9
                    nudged.append(index)
            return deactivate(self, tenants, now=now)

        monkeypatch.setattr(TenantRegistry, "deactivate",
                            nudge_then_churn)
        _, audit = audited_shock_cell(
            self._stock_shock_config(ARRIVAL_STREAMED))
        assert nudged
        assert not audit.exact
        assert audit.wallet_ledger_mismatches == 1

    def test_cli_streamed_partitions_match_eager(self, capsys):
        from repro.cli import main

        args = ["tenants", "--n-tenants", "12", "--queries", "60",
                "--schemes", "econ-cheap", "--settlement-period", "60",
                "--churn-period", "15", "--cache-partitions", "2"]
        assert main(args) == 0
        eager = capsys.readouterr().out
        assert main(args + ["--arrival-mode", "streamed"]) == 0
        assert capsys.readouterr().out == eager


@pytest.mark.filterwarnings(
    "ignore::repro.distcache.PartitionImbalanceWarning")
class TestPartitionedStreamedParity:
    """``--cache-partitions 2`` tables are byte-identical between eager
    and streamed arrivals: both read one population stream into the same
    per-partition registries.

    Adaptive placement under batched planning is left out: it diverges
    from scalar planning in either arrival mode (a known divergence,
    pinned by the end-to-end benchmark's strict xfail).
    """

    @staticmethod
    def _partitioned(arrival_mode, placement, planning):
        from repro.distcache import run_partitioned_cell
        from repro.workload.grammar import default_shock_grammar

        grammar = default_shock_grammar()
        config = TenantExperimentConfig(
            scheme="econ-cheap", tenant_count=16, query_count=120,
            interarrival_s=5.0, seed=4, churn_period=30,
            churn_fraction=0.25, budget_sigma=0.4,
            settlement_period_s=90.0, planning=planning,
            shocks=grammar.shocks, tenant_tiers=grammar.tiers,
            grammar=grammar, arrival_mode=arrival_mode)
        report = run_partitioned_cell(config, partitions=2,
                                      compare_baseline=False,
                                      placement=placement)
        return report, _rendered(report.cell)

    @pytest.mark.parametrize("placement,planning", [
        ("hash", "scalar"), ("hash", "batched"), ("adaptive", "scalar")])
    def test_tables_match_eager(self, placement, planning):
        eager, eager_tables = self._partitioned(ARRIVAL_EAGER, placement,
                                                planning)
        streamed, streamed_tables = self._partitioned(ARRIVAL_STREAMED,
                                                      placement, planning)
        assert streamed.cell.population_size > 16  # churn happened
        assert streamed_tables == eager_tables
        assert streamed.cell.summary == eager.cell.summary
        assert streamed.checkpoints == eager.checkpoints
        assert streamed.handoffs == eager.handoffs
