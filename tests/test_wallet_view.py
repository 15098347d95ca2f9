"""The compact wallet view against the per-tenant wallet fold it replaced.

``wallet_oracle`` keeps the fold as it was: one ``(tenant id, credit)``
pair per owned tenant, built by walking every minted index. The view
stores only touched balances and derives every seed, so Hypothesis drives
registries through churn, re-arrival after churn, ad-hoc ids and tiered
or untiered populations, and checks that the view's items, lookups and
distribution cells equal the oracle's bit for bit; likewise for the
sharded disjoint union and the partitioned merge of whole cells. A
``tracemalloc`` bound keeps a population-sized output from coming back.
"""

import pickle
import tracemalloc

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import wallet_oracle as oracle  # noqa: E402
from repro.distcache import DistCacheRunner  # noqa: E402
from repro.distcache import merge as distcache_merge  # noqa: E402
from repro.economy.tenancy import TenantRegistry, WalletView  # noqa: E402
from repro.experiments.reporting import distribution_cells  # noqa: E402
from repro.experiments.tenants import (  # noqa: E402
    ARRIVAL_STREAMED,
    TenantCell,
    TenantExperimentConfig,
    tenant_aggregate_table,
    top_tenant_table,
)
from repro.sharding import (ShardCoordinator, ShardScopedRegistry,  # noqa: E402
                            TenantPartitioner)
from repro.sharding.merge import merge_shard_wallets  # noqa: E402
from repro.workload.grammar import TenantTier  # noqa: E402
from repro.workload.population import (GenerativeProfileSource,  # noqa: E402
                                       PopulationSpec, tenant_id_for)

TIERS = (
    TenantTier(name="gold", weight=1.0, budget_multiplier=1.5,
               credit_multiplier=2.0),
    TenantTier(name="bronze", weight=3.0, budget_multiplier=0.6,
               credit_multiplier=0.3),
)

ADHOC_IDS = ("alice", "zeta", "default")

#: One registry call, replayed on the plain registry and on every shard.
OPERATIONS = st.one_of(
    st.tuples(st.just("arrive"), st.integers(0, 40), st.integers(1, 8)),
    st.tuples(st.just("leave"), st.integers(0, 40), st.integers(1, 8)),
    st.tuples(st.just("charge"), st.integers(0, 48),
              st.floats(0.01, 9.0, allow_nan=False)),
    st.tuples(st.just("adhoc"), st.sampled_from(ADHOC_IDS),
              st.sampled_from([0.0, 0.1, 0.7, 2.5])),
)


def _bits(pairs):
    return [(tenant_id, float.hex(credit)) for tenant_id, credit in pairs]


def _cells_bits(cells):
    return [cell if isinstance(cell, str) else float.hex(cell)
            for cell in cells]


def _apply(registry, operations):
    """Replay ``operations``; a population charge goes to a tenant that
    has arrived (live or churned), as a query stream's charges do."""
    minted = 0
    for now, (kind, first, amount) in enumerate(operations):
        if kind == "arrive":
            registry.activate(range(first, first + amount), now=float(now))
            minted = max(minted, first + amount)
        elif kind == "leave":
            registry.deactivate(tuple(range(first, first + amount)),
                                now=float(now))
        elif kind == "charge" and minted:
            registry.charge(tenant_id_for(first % minted), amount,
                            now=float(now))
        elif kind == "adhoc":
            registry.charge(first, amount, now=float(now))


def _assert_view_is_the_fold(view, expected):
    """``expected`` is the oracle's ``[(tenant id, credit)]``."""
    assert _bits(view.items()) == _bits(expected)
    assert [float.hex(credit) for credit in view.credits()] == \
        [float.hex(credit) for _, credit in expected]
    assert len(view) == len(expected)
    for tenant_id, credit in expected:
        assert float.hex(view.credit_of(tenant_id)) == float.hex(credit)
    assert view.credit_of("t99999") is None
    assert view.credit_of("nobody") is None
    assert _cells_bits(distribution_cells(view.credits())) == \
        _cells_bits(distribution_cells([credit for _, credit in expected]))
    assert pickle.loads(pickle.dumps(view)) == view


@settings(max_examples=80, deadline=None)
@given(tenant_count=st.integers(1, 30), tiered=st.booleans(),
       initial_credit=st.sampled_from([50.0, 0.1, 7.3]),
       operations=st.lists(OPERATIONS, max_size=50),
       shard_count=st.integers(1, 3))
def test_view_equals_the_wallet_fold(tenant_count, tiered, initial_credit,
                                     operations, shard_count):
    source = GenerativeProfileSource(
        spec=PopulationSpec(tenant_count=tenant_count,
                            initial_credit=initial_credit),
        tiers=TIERS if tiered else ())
    plain = TenantRegistry(source)
    partitioner = TenantPartitioner(shard_count)
    shards = [ShardScopedRegistry(source, partitioner, shard)
              for shard in range(shard_count)]
    for registry in (plain, *shards):
        _apply(registry, operations)

    expected = list(oracle.credit_by_tenant(plain).items())
    _assert_view_is_the_fold(plain.wallets(), expected)
    for shard in shards:
        _assert_view_is_the_fold(
            shard.wallets(), list(oracle.credit_by_tenant(shard).items()))
    merged = merge_shard_wallets([(shard.wallets(), shard.adhoc_ranks())
                                  for shard in shards])
    assert oracle.merged_shard_wallets(shards) == expected
    _assert_view_is_the_fold(merged, expected)
    assert merged == plain.wallets()


def test_a_registry_without_population_keeps_pattern_ids_ad_hoc():
    registry = TenantRegistry()
    registry.activate(range(3), now=0.0)  # registered by id, in order
    registry.charge("t00001", 1.5, now=1.0)
    view = registry.wallets()
    assert view.minted == 0
    assert list(view.items()) == [("t00000", 0.0), ("t00001", -1.5),
                                  ("t00002", 0.0)]
    assert view.credit_of("t00001") == -1.5
    assert list(view.items()) == list(oracle.credit_by_tenant(registry).items())


def test_an_empty_view_has_no_wallets():
    view = WalletView()
    assert len(view) == 0
    assert list(view.items()) == [] and list(view.credits()) == []
    assert view.credit_of("t00000") is None
    assert distribution_cells(view.credits()) == ["-", "-", "-"]


def _cell_config(seed, tiered):
    return TenantExperimentConfig(
        scheme="econ-cheap", tenant_count=40, query_count=160,
        interarrival_s=1.0, churn_period=30, churn_fraction=0.5,
        settlement_period_s=20.0, seed=seed,
        tenant_tiers=TIERS if tiered else ())


def _plain_cell(config):
    cell = TenantCell(config)
    result = cell.outcome(cell.run())
    return result, list(oracle.credit_by_tenant(cell.registry).items())


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**16), tiered=st.booleans())
def test_sharded_cell_wallets_are_the_disjoint_union(seed, tiered):
    config = _cell_config(seed, tiered)
    plain, expected = _plain_cell(config)
    _assert_view_is_the_fold(plain.wallet_credit, expected)
    sharded = ShardCoordinator(2).run_cell(config).cell
    _assert_view_is_the_fold(sharded.wallet_credit, expected)
    assert tenant_aggregate_table(sharded) == tenant_aggregate_table(plain)
    assert top_tenant_table(sharded) == top_tenant_table(plain)


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**16), tiered=st.booleans())
def test_partitioned_cell_wallets_are_seed_minus_charged(seed, tiered):
    config = _cell_config(seed, tiered)
    seen = []
    merged_wallets = distcache_merge.merged_wallets

    def recording(registries, steps):
        seen.append(oracle.merged_partition_wallets(registries, steps))
        return merged_wallets(registries, steps)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distcache_merge, "merged_wallets", recording)
        report = DistCacheRunner(2, compare_baseline=False).run_cell(config)
    assert len(seen) == 1
    _assert_view_is_the_fold(report.cell.wallet_credit, seen[0])


def test_outputs_of_a_large_population_allocate_little():
    """``outcome`` and both tables of a 100k-tenant cell stay far below
    one object per tenant (the ``(id, credit)`` pairs alone were ~13 MiB)."""
    cell = TenantCell(TenantExperimentConfig(
        scheme="econ-cheap", tenant_count=100_000, query_count=500,
        settlement_period_s=5000.0, arrival_mode=ARRIVAL_STREAMED))
    result = cell.run()
    tracemalloc.start()
    try:
        outcome = cell.outcome(result)
        tenant_aggregate_table(outcome)
        top_tenant_table(outcome, limit=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(outcome.wallet_credit) == 100_000
    assert peak < 2 * 2**20, f"outputs allocated {peak / 2**20:.1f} MiB"
