"""Hypothesis properties of the sharded execution model.

Two families:

* **merge exactness** — for any shard count in 1..8 the merged per-tenant
  and per-provider aggregates equal the single-process run's, bitwise;
* **credit conservation** — across shards, seed credit splits exactly into
  remaining wallet credit plus provider income, at every settlement
  barrier and for arbitrary populations.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.tenants import (
    TenantExperimentConfig,
    run_tenant_cell,
    tenant_aggregate_table,
    top_tenant_table,
)
from repro.sharding import ShardCoordinator, ShardTask, run_shard
from repro.workload.grammar import default_shock_grammar

#: One small, churning, non-uniform-budget population shared by the
#: shard-count property; the unsharded baseline runs once per session.
BASE_CONFIG = TenantExperimentConfig(
    scheme="econ-cheap", tenant_count=10, query_count=40,
    interarrival_s=1.0, seed=3, churn_period=15, budget_sigma=0.3,
)


_GRAMMAR = default_shock_grammar()

#: The same population under the stock shock grammar: tier-scaled budgets
#: and seed credit, weighted query classes, a flash crowd, market shocks,
#: and strict maintenance.
TIERED_CONFIG = dataclasses.replace(
    BASE_CONFIG, grammar=_GRAMMAR, shocks=_GRAMMAR.shocks,
    tenant_tiers=_GRAMMAR.tiers, strict_maintenance=True,
)


@pytest.fixture(scope="module")
def baselines():
    """The unsharded run of each config, computed once per session."""
    cells = {}

    def baseline(config):
        if config not in cells:
            cells[config] = run_tenant_cell(config)
        return cells[config]

    return baseline


class TestMergeEqualsSingleProcess:
    @settings(max_examples=8, deadline=None)
    @given(shards=st.integers(min_value=1, max_value=8),
           config=st.just(BASE_CONFIG))
    @example(shards=3, config=TIERED_CONFIG)
    def test_any_shard_count_matches_baseline(self, baselines, shards,
                                              config):
        baseline = baselines(config)
        report = ShardCoordinator(shards).run_cell(config)
        cell = report.cell
        assert cell.summary == baseline.summary
        assert cell.tenants == baseline.tenants
        assert cell.wallet_credit == baseline.wallet_credit
        assert tenant_aggregate_table(cell) == tenant_aggregate_table(baseline)
        assert top_tenant_table(cell) == top_tenant_table(baseline)
        assert sum(report.owned_tenants_per_shard) == cell.population_size


class TestCrossShardConservation:
    @settings(max_examples=10, deadline=None)
    @given(
        shards=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=50),
        tenant_count=st.integers(min_value=1, max_value=20),
        initial_credit=st.floats(min_value=0.0, max_value=200.0),
    )
    def test_seed_credit_splits_into_wallets_plus_income(
            self, shards, seed, tenant_count, initial_credit):
        config = TenantExperimentConfig(
            scheme="econ-cheap", tenant_count=tenant_count, query_count=25,
            interarrival_s=1.0, seed=seed, initial_credit=initial_credit,
        )
        results = [run_shard(ShardTask(config, index, shards))
                   for index in range(shards)]
        final_points = [result.checkpoints[-1] for result in results]
        # Per shard: the owned books balance exactly.
        for result, point in zip(results, final_points):
            assert point.owned_wallet_credit + point.owned_charged == \
                pytest.approx(result.owned_initial_credit, abs=1e-6)
        # Across shards: the provider's income is the union of the
        # shard-local charges — every dollar owned exactly once.
        assert sum(point.owned_charged for point in final_points) == \
            pytest.approx(final_points[0].provider_query_payments, abs=1e-6)
        # And each shard's foreign tally is exactly what the others booked.
        total_booked = sum(point.owned_charged for point in final_points)
        for result, point in zip(results, final_points):
            assert result.foreign_charged == \
                pytest.approx(total_booked - point.owned_charged, abs=1e-6)
