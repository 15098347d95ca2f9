"""Engine-level tests of the batched planning fast path.

The batched planner's contract is bit-for-bit equality with the scalar
pipeline: same outcomes, same ledger, same regret — only throughput may
differ. These tests drive the engine directly; the property-based sweep
lives in ``test_batched_parity_property.py``.
"""

import pytest

from repro.cache.manager import CacheConfig, CacheManager
from repro.economy.batch import BatchScheduler
from repro.economy.engine import (
    PLANNING_BATCHED,
    PLANNING_SCALAR,
    EconomyConfig,
    EconomyEngine,
)
from repro.economy.pricing import PricedPlan
from repro.errors import ConfigurationError
from repro.planner.enumerator import PlanEnumerator
from repro.structures.cached_index import CachedIndex
from repro.workload.generator import WorkloadGenerator, WorkloadSpec

CANDIDATES = (
    CachedIndex("lineitem", ("l_shipdate",)),
    CachedIndex("lineitem", ("l_shipmode",)),
    CachedIndex("lineitem", ("l_quantity", "l_shipmode")),
)


def make_engine(execution_model, structure_costs, planning):
    enumerator = PlanEnumerator(execution_model, candidate_indexes=CANDIDATES)
    return EconomyEngine(
        enumerator=enumerator,
        structure_costs=structure_costs,
        cache=CacheManager(CacheConfig()),
        config=EconomyConfig(planning=planning),
    )


def workload(count=120, interarrival=5.0, seed=42):
    spec = WorkloadSpec(query_count=count, interarrival_s=interarrival,
                        seed=seed)
    return WorkloadGenerator(spec).generate()


class TestConfig:
    def test_planning_modes(self):
        assert EconomyConfig(planning=PLANNING_SCALAR).planning == "scalar"
        assert EconomyConfig(planning=PLANNING_BATCHED).planning == "batched"

    def test_unknown_planning_rejected(self):
        with pytest.raises(ConfigurationError):
            EconomyConfig(planning="vectorised")


class TestOutcomeParity:
    def test_batched_outcomes_bitwise_equal_scalar(self, execution_model,
                                                   structure_costs):
        queries = workload()
        scalar = make_engine(execution_model, structure_costs, "scalar")
        batched = make_engine(execution_model, structure_costs, "batched")
        batched.prime_queries(queries, settlement_period_s=50.0)
        for query in queries:
            a = scalar.process_query(query)
            b = batched.process_query(query)
            assert a == b, query.query_id
        assert scalar.account.transactions == batched.account.transactions
        assert scalar.account.credit == batched.account.credit
        assert (scalar.regret_tracker.ranked()
                == batched.regret_tracker.ranked())
        assert scalar.cache.built_keys == batched.cache.built_keys

    def test_unprimed_queries_fall_back_to_scalar(self, execution_model,
                                                  structure_costs):
        queries = workload(count=40)
        scalar = make_engine(execution_model, structure_costs, "scalar")
        batched = make_engine(execution_model, structure_costs, "batched")
        # Prime only the first half; the rest must take the scalar path
        # with identical outcomes.
        batched.prime_queries(queries[:20], settlement_period_s=None)
        for query in queries:
            assert scalar.process_query(query) == batched.process_query(query)

    def test_batched_queries_materialise_the_chosen_row_only(
            self, execution_model, structure_costs, monkeypatch):
        """Negotiation runs over row candidates; settlement sees a
        PricedPlan built for the chosen row alone, and regret rows reach
        regret distribution as (missing structures, regret) pairs."""
        queries = workload()
        engine = make_engine(execution_model, structure_costs, "batched")
        engine.prime_queries(queries, settlement_period_s=50.0)
        results = []
        materialized = []
        regret_pairs = []
        settle = engine._settle_chosen_plan
        materialize = engine._materialize_row
        distribute = engine._distribute_regret

        def recording_settle(query, result, now):
            results.append(result)
            return settle(query, result, now)

        def counting_materialize(*args):
            materialized.append(args)
            return materialize(*args)

        def recording_distribute(query, regrets):
            regret_pairs.extend(regrets)
            return distribute(query, regrets)

        monkeypatch.setattr(engine, "_settle_chosen_plan", recording_settle)
        monkeypatch.setattr(engine, "_materialize_row", counting_materialize)
        monkeypatch.setattr(engine, "_distribute_regret",
                            recording_distribute)
        for query in queries:
            engine.process_query(query)

        assert len(results) == len(queries)
        assert len(materialized) == len(queries)
        assert all(type(result.chosen) is PricedPlan for result in results)
        assert regret_pairs
        for missing, regret in regret_pairs:
            assert type(missing) is tuple and missing
            assert type(regret) is float and regret > 0

    def test_prime_is_a_noop_for_scalar_engines(self, execution_model,
                                                structure_costs):
        engine = make_engine(execution_model, structure_costs, "scalar")
        engine.prime_queries(workload(count=10))
        assert engine._plan_tables is None

    def test_plan_tables_populated_when_batched(self, execution_model,
                                                structure_costs):
        queries = workload(count=30)
        engine = make_engine(execution_model, structure_costs, "batched")
        engine.prime_queries(queries)
        for query in queries:
            engine.process_query(query)
        assert engine._plan_tables is not None
        assert len(engine._plan_tables) > 0


class TestRegretPairParity:
    """Both planning paths hand regret distribution the same
    ``(missing structures, regret)`` pairs, pair for pair: the batched
    path reads them from its pricing state, the scalar path derives them
    from each regretted plan."""

    SHOCKS = ("squeeze@0.6:0.2:0.5", "invalidate@0.5", "invalidate@0.3:index")

    def record_pairs(self, monkeypatch, partitions, seed, planning):
        from repro.distcache import DistCacheRunner
        from repro.experiments.tenants import (TenantExperimentConfig,
                                               run_tenant_cell)
        from repro.workload.grammar import parse_shock

        pairs = []
        distribute = EconomyEngine._distribute_regret

        def recording(engine, query, regrets):
            partition = getattr(engine, "partition_index", None)
            pairs.append((partition, query.query_id, [
                (missing, regret.hex()) for missing, regret in regrets]))
            return distribute(engine, query, regrets)
        monkeypatch.setattr(EconomyEngine, "_distribute_regret", recording)

        config = TenantExperimentConfig(
            scheme="econ-cheap", tenant_count=12, query_count=60,
            interarrival_s=5.0, settlement_period_s=25.0, seed=seed,
            planning=planning, strict_maintenance=True,
            shocks=tuple(parse_shock(text) for text in self.SHOCKS))
        if partitions is None:
            run_tenant_cell(config)
        else:
            DistCacheRunner(partitions, placement="hash",
                            compare_baseline=False).run_cell(config)
        monkeypatch.undo()
        return pairs

    @pytest.mark.parametrize("partitions", [None, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batched_pairs_equal_scalar_pairs(self, monkeypatch, seed,
                                              partitions):
        scalar = self.record_pairs(monkeypatch, partitions, seed, "scalar")
        batched = self.record_pairs(monkeypatch, partitions, seed, "batched")
        assert len(scalar) == 60
        assert any(regrets for _, _, regrets in scalar)
        # Structure tuples compare element by element; regrets by hex.
        assert batched == scalar
        assert all(type(missing) is tuple for _, _, regrets in batched
                   for missing, _ in regrets)


class TestBatchScheduler:
    def make(self, execution_model):
        enumerator = PlanEnumerator(execution_model,
                                    candidate_indexes=CANDIDATES)
        return BatchScheduler(enumerator, execution_model)

    def test_each_query_handed_out_once(self, execution_model):
        scheduler = self.make(execution_model)
        queries = workload(count=8)
        scheduler.prime(queries)
        # Priming reads nothing; the first request pulls the whole window.
        assert scheduler.pending_queries == 0
        for index, query in enumerate(queries):
            assert scheduler.view_for(query) is not None
            assert scheduler.pending_queries == 7 - index
        # Asking again falls back (the engine then runs the scalar path).
        assert scheduler.view_for(queries[0]) is None

    def test_settlement_period_splits_epochs(self, execution_model):
        from repro.obs.trace import TraceRecorder

        queries = workload(count=30, interarrival=5.0)
        # A run primes all its arrivals, on the grid they start; a cache
        # partition primes its share of one window (here the arrivals at
        # 20..75 s) on the run's grid, which starts at 0 s.
        inputs = [(queries, None, (30, 6)), (queries[4:16], 0.0, (12, 4))]
        for primed, grid_start_s, expected in inputs:
            scheduler = self.make(execution_model)
            recorder = TraceRecorder()
            scheduler.attach_trace(recorder)
            scheduler.prime(primed, settlement_period_s=25.0,
                            grid_start_s=grid_start_s)
            for query in primed:
                scheduler.view_for(query)
            # One window (the queries fit the bound) spanning the 25-s
            # epochs they arrive in.
            windows = [fields for _, _, _, kind, fields in recorder.records
                       if kind == "batch_window"]
            assert [(w["size"], w["epochs"]) for w in windows] == [expected]

    def test_drained_scheduler_holds_no_arrays(self, execution_model):
        scheduler = self.make(execution_model)
        queries = workload(count=6)
        scheduler.prime(queries)
        for query in queries:
            scheduler.view_for(query)
        assert scheduler._blocks == {}
        assert scheduler._columns == {}

    def test_clear_forgets_priming(self, execution_model):
        scheduler = self.make(execution_model)
        queries = workload(count=5)
        scheduler.prime(queries)
        scheduler.clear()
        assert scheduler.pending_queries == 0
        assert scheduler.view_for(queries[0]) is None
