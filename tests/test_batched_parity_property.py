"""Property-based parity sweep: batched planning is bitwise scalar-equal.

Hypothesis draws workload shapes (template mix via seed, batch sizes,
inter-arrival times), enumerator configurations, settlement grids, plan
selections, amortization policies whose built charges move (a short
uniform horizon, declining balance), warm caches and cache capacities
that force LRU evictions; for each draw the batched engine's outcome
stream, account ledger, regret totals and evictions must equal the
scalar engine's exactly — ``==`` on floats, no tolerances. Separate
properties cover the tenant-sharded and cache-partitioned execution
modes end to end.
"""

import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cache.manager import CacheConfig, CacheManager
from repro.costmodel.amortization import (DecliningAmortization,
                                          UniformAmortization)
from repro.economy.engine import EconomyConfig, EconomyEngine
from repro.economy.negotiation import PlanSelection
from repro.errors import PlanningError
from repro.planner.enumerator import EnumeratorConfig, PlanEnumerator
from repro.structures.base import StructureKind
from repro.structures.cached_index import CachedIndex
from repro.workload.generator import WorkloadGenerator, WorkloadSpec

CANDIDATES = (
    CachedIndex("lineitem", ("l_shipdate",)),
    CachedIndex("lineitem", ("l_shipmode",)),
    CachedIndex("lineitem", ("l_quantity", "l_shipmode")),
    CachedIndex("lineitem", ("l_orderkey",)),
)

enumerator_configs = st.builds(
    EnumeratorConfig,
    allow_index_plans=st.booleans(),
    max_extra_nodes=st.integers(min_value=0, max_value=3),
    allow_backend_plan=st.booleans(),
    max_candidate_indexes_per_query=st.integers(min_value=1, max_value=4),
)

#: ``None`` is the engine default (uniform over the configured horizon).
#: A 2-5 query horizon drops built charges to 0 mid-run; declining
#: balance moves them on every use.
amortizations = st.one_of(
    st.none(),
    st.integers(min_value=2, max_value=5).map(UniformAmortization),
    st.sampled_from([0.05, 0.3]).map(DecliningAmortization),
)

#: The largest single structure the candidates and columns reach is
#: ~380 GB, so both bounds admit everything yet force LRU evictions.
SMALL_CAPACITY = 400 * 10**9
capacities = st.sampled_from([None, SMALL_CAPACITY, 800 * 10**9])

#: ``None`` starts from an empty cache; a cost pre-builds every column
#: and index the stream's plans use (CPU nodes stay unbuilt) at that
#: recorded build cost. A cheap warm cache serves from the first query,
#: so its charges run out (short uniform horizon) or decline mid-run.
warm_costs = st.sampled_from([None, 0.0, 1e-3, 0.02])


def warm_cache(capacity_bytes, structure_costs, build_cost, plans):
    """A cache pre-built with the columns and indexes of ``plans``."""
    cache = CacheManager(CacheConfig(capacity_bytes=capacity_bytes))
    if build_cost is None:
        return cache
    schema = structure_costs.schema
    for plan in plans:
        for piece in plan.structures:
            if (piece.kind is StructureKind.CPU_NODE
                    or cache.contains(piece.key)):
                continue
            cache.admit(piece, size_bytes=piece.size_bytes(schema),
                        build_cost=build_cost,
                        maintenance_rate=structure_costs.maintenance_rate(
                            piece),
                        now=0.0)
    return cache


def run_pair(execution_model, structure_costs, enum_config, queries,
             settlement_period_s, plan_selection=PlanSelection.MIN_PROFIT,
             amortization=None, capacity_bytes=None, warm_cost=None):
    """Run the same stream through a scalar and a batched engine."""

    def enumerator():
        return PlanEnumerator(execution_model, candidate_indexes=CANDIDATES,
                              config=enum_config)

    planner = enumerator()
    plans = ([] if warm_cost is None else
             [plan for query in queries for plan in planner.enumerate(query)])

    def make(planning):
        return EconomyEngine(
            enumerator=enumerator(),
            structure_costs=structure_costs,
            cache=warm_cache(capacity_bytes, structure_costs, warm_cost,
                             plans),
            config=EconomyConfig(planning=planning,
                                 plan_selection=plan_selection),
            amortization=amortization,
        )

    scalar = make("scalar")
    batched = make("batched")
    batched.prime_queries(queries, settlement_period_s=settlement_period_s)
    for query in queries:
        # Some drawn configurations legitimately fail (e.g. no backend
        # plan over an empty cache leaves nothing existing to negotiate);
        # parity then means both paths fail identically.
        outcome = error = None
        try:
            outcome = scalar.process_query(query)
        except PlanningError as exc:
            error = str(exc)
        try:
            batched_outcome = batched.process_query(query)
        except PlanningError as exc:
            assert error == str(exc)
        else:
            assert error is None
            assert outcome == batched_outcome, (
                f"outcome diverged at query {query.query_id}"
            )
    assert scalar.account.transactions == batched.account.transactions
    assert scalar.regret_tracker.ranked() == batched.regret_tracker.ranked()
    assert scalar.cache.built_keys == batched.cache.built_keys
    assert scalar.cache.evictions == batched.cache.evictions
    return scalar


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    query_count=st.integers(min_value=1, max_value=60),
    interarrival_s=st.sampled_from([0.5, 1.0, 5.0, 30.0]),
    enum_config=enumerator_configs,
    settlement_period_s=st.sampled_from([None, 10.0, 60.0]),
    plan_selection=st.sampled_from(list(PlanSelection)),
    amortization=amortizations,
    capacity_bytes=capacities,
    warm_cost=warm_costs,
)
def test_engine_stream_ledger_and_regret_bitwise_equal(
        execution_model, structure_costs, seed, query_count, interarrival_s,
        enum_config, settlement_period_s, plan_selection, amortization,
        capacity_bytes, warm_cost):
    queries = WorkloadGenerator(WorkloadSpec(
        query_count=query_count, interarrival_s=interarrival_s, seed=seed,
    )).generate()
    run_pair(execution_model, structure_costs, enum_config, queries,
             settlement_period_s, plan_selection, amortization,
             capacity_bytes, warm_cost)


def test_small_capacity_forces_lru_evictions(execution_model,
                                             structure_costs):
    """The capacity draws above really exercise LRU eviction."""
    queries = WorkloadGenerator(WorkloadSpec(
        query_count=60, interarrival_s=1.0, seed=1,
    )).generate()
    scalar = run_pair(execution_model, structure_costs, EnumeratorConfig(),
                      queries, 10.0, capacity_bytes=SMALL_CAPACITY)
    assert any(record.reason == "capacity_lru"
               for record in scalar.cache.evictions)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    query_count=st.integers(min_value=4, max_value=60),
    invalidate_after=st.integers(min_value=1, max_value=59),
    predicate=st.sampled_from(["", "index", "lineitem"]),
    enum_config=enumerator_configs,
)
def test_mid_run_invalidation_stays_bitwise_equal(
        execution_model, structure_costs, seed, query_count,
        invalidate_after, predicate, enum_config):
    """A mid-run invalidation (generation bump, memo drop, re-pricing)
    must leave the batched planner bitwise equal to the scalar one."""

    def make(planning):
        return EconomyEngine(
            enumerator=PlanEnumerator(execution_model,
                                      candidate_indexes=CANDIDATES,
                                      config=enum_config),
            structure_costs=structure_costs,
            cache=CacheManager(CacheConfig()),
            config=EconomyConfig(planning=planning),
        )

    queries = WorkloadGenerator(WorkloadSpec(
        query_count=query_count, interarrival_s=2.0, seed=seed,
    )).generate()
    cut = min(invalidate_after, query_count - 1)
    scalar = make("scalar")
    batched = make("batched")
    batched.prime_queries(queries, settlement_period_s=None)
    for index, query in enumerate(queries):
        if index == cut:
            now = query.arrival_time
            scalar_records = scalar.invalidate_structures(predicate, now)
            batched_records = batched.invalidate_structures(predicate, now)
            assert ([r.key for r in scalar_records]
                    == [r.key for r in batched_records])
        outcome = error = None
        try:
            outcome = scalar.process_query(query)
        except PlanningError as exc:
            error = str(exc)
        try:
            batched_outcome = batched.process_query(query)
        except PlanningError as exc:
            assert error == str(exc)
        else:
            assert error is None
            assert outcome == batched_outcome, (
                f"outcome diverged at query {query.query_id}"
            )
    assert scalar.account.transactions == batched.account.transactions
    assert scalar.regret_tracker.ranked() == batched.regret_tracker.ranked()
    assert scalar.cache.built_keys == batched.cache.built_keys


@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=255),
    shards=st.integers(min_value=2, max_value=4),
)
def test_sharded_cells_bitwise_equal(seed, shards):
    from repro.experiments.tenants import TenantExperimentConfig
    from repro.sharding.coordinator import ShardCoordinator

    def cell(planning):
        config = TenantExperimentConfig(
            scheme="econ-cheap", tenant_count=12, query_count=40,
            interarrival_s=1.0, seed=seed, settlement_period_s=15.0,
            planning=planning)
        return ShardCoordinator(shard_count=shards).run_cell(config).cell

    scalar, batched = cell("scalar"), cell("batched")
    assert scalar.summary == batched.summary
    assert scalar.tenants == batched.tenants
    assert scalar.wallet_credit == batched.wallet_credit


@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=255),
    partitions=st.integers(min_value=2, max_value=3),
)
@example(seed=5, partitions=3)  # one partition idles, so the run warns
def test_partitioned_cells_bitwise_equal(seed, partitions):
    from repro.distcache import DistCacheRunner, PartitionImbalanceWarning
    from repro.experiments.tenants import TenantExperimentConfig

    def cell(planning):
        config = TenantExperimentConfig(
            scheme="econ-cheap", tenant_count=12, query_count=40,
            interarrival_s=1.0, seed=seed, settlement_period_s=15.0,
            planning=planning)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = DistCacheRunner(
                partitions, compare_baseline=False).run_cell(config)
        # A partition count above the busy template count leaves some
        # partition idle: exactly then, and only then, the run warns.
        idle = min(stats.queries_served for stats in report.partitions) == 0
        assert [w.category for w in caught] == (
            [PartitionImbalanceWarning] if idle else [])
        return report

    scalar, batched = cell("scalar"), cell("batched")
    assert scalar.cell.summary == batched.cell.summary
    assert scalar.cell.tenants == batched.cell.tenants
    assert scalar.cell.wallet_credit == batched.cell.wallet_credit
    assert scalar.checkpoints == batched.checkpoints
    assert scalar.partitions == batched.partitions
