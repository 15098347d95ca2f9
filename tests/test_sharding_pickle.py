"""Picklability audit of everything that crosses a shard process boundary.

The sharding subsystem ships :class:`ShardTask` out and
:class:`ShardResult` back through a ``ProcessPoolExecutor``; the economy
and metrics state it summarises (registries, accounts, regret trackers,
collectors) must also round-trip through ``pickle`` so future transports
(checkpointing, remote workers) don't hit lambdas or local classes hiding
in state. These are regression tests for that contract.
"""

import pickle

import pytest

from repro.economy.account import CloudAccount
from repro.economy.regret import RegretTracker
from repro.economy.tenancy import TenantProfile, TenantRegistry
from repro.economy.user_model import UserModel
from repro.errors import ShardingError
from repro.experiments.tenants import TenantExperimentConfig
from repro.policies.base import SchemeStep
from repro.sharding import (
    SettlementCheckpoint,
    ShardScopedRegistry,
    ShardTask,
    TenantPartitioner,
    run_shard,
)
from repro.simulator.metrics import MetricsCollector
from repro.structures.cached_column import CachedColumn
from repro.workload.population import (GenerativeProfileSource,
                                       PopulationSpec, tenant_id_for)


def roundtrip(value):
    return pickle.loads(pickle.dumps(value))


class TestEconomyStatePickles:
    def test_cloud_account_with_ledger(self):
        account = CloudAccount(initial_credit=10.0)
        account.deposit(5.0, 1.0, CloudAccount.CATEGORY_QUERY_PAYMENT, note="q1")
        account.withdraw(2.0, 2.0, CloudAccount.CATEGORY_BUILD, note="col")
        clone = roundtrip(account)
        assert clone.credit == account.credit
        assert clone.transactions == account.transactions

    def test_regret_tracker_with_lru_pool(self):
        tracker = RegretTracker(pool_capacity=4)
        tracker.add(CachedColumn("lineitem", "l_quantity"), 2.5)
        tracker.add(CachedColumn("orders", "o_custkey"), 1.0)
        clone = roundtrip(tracker)
        assert clone.value("column:lineitem.l_quantity") == 2.5
        assert clone.tracked_keys() == tracker.tracked_keys()

    def test_tenant_registry_with_charges_and_regret(self):
        registry = TenantRegistry()
        registry.register(TenantProfile(
            "alice", initial_credit=10.0,
            user_model=UserModel(budget_factor=1.5)))
        registry.register(TenantProfile(
            "bob", initial_credit=5.0, budget_multiplier=2.0))
        registry.charge("alice", 4.0, now=1.0, note="q7")
        registry.record_regret("bob", [CachedColumn("orders", "o_custkey")],
                               3.0)
        clone = roundtrip(registry)
        assert clone.wallets() == registry.wallets()
        assert clone.total_charged() == registry.total_charged()
        assert clone.state("bob").profile.budget_multiplier == 2.0

    def test_shard_scoped_registry(self):
        source = GenerativeProfileSource(
            spec=PopulationSpec(tenant_count=6, initial_credit=3.0))
        registry = ShardScopedRegistry(source, TenantPartitioner(2), 0)
        for index in range(6):
            registry.activate(tenant_id_for(index), now=0.0)
            registry.charge(tenant_id_for(index), 1.0, now=0.5)
        registry.charge("alice", 1.0, now=0.5)
        registry.deactivate(next(registry.wallets().items())[0], now=1.0)
        assert len(registry.wallets())
        assert registry.foreign_charged > 0
        clone = roundtrip(registry)
        assert clone.wallets() == registry.wallets()
        assert clone.adhoc_ranks() == registry.adhoc_ranks()
        assert pickle.loads(pickle.dumps(registry.wallets())) \
            == registry.wallets()
        assert clone.foreign_charged == registry.foreign_charged
        assert clone.shard_index == 0
        assert clone.total_credit() == registry.total_credit()
        # The clone keeps scoping: ownership is the partitioner's, not a
        # closure left behind in the original.
        foreign = next(tenant_id_for(i) for i in range(6)
                       if not registry.owns(tenant_id_for(i)))
        with pytest.raises(ShardingError):
            clone.ensure(foreign)


class TestMetricsStatePickles:
    def test_collector_with_steps_and_maintenance(self):
        collector = MetricsCollector("econ-cheap")
        collector.record_step(SchemeStep(
            query_id=0, template_name="t", arrival_time_s=0.0,
            response_time_s=0.1, served_in_cache=True, plan_label="cache",
            execution_cpu_dollars=0.1, execution_io_dollars=0.1,
            execution_network_dollars=0.0, build_dollars=0.0,
            network_bytes=10.0, charge=1.0, profit=0.2,
            builds=0, evictions=0, eviction_losses=0.0,
            tenant_id="alice",
        ))
        collector.record_maintenance(0.5, 1.0)
        clone = roundtrip(collector)
        assert clone.steps == collector.steps
        assert clone.summary() == collector.summary()


class TestShardTransportPickles:
    def test_task_and_result_roundtrip(self):
        config = TenantExperimentConfig(
            scheme="econ-cheap", tenant_count=6, query_count=20,
            interarrival_s=1.0, seed=1)
        task = roundtrip(ShardTask(config, shard_index=1, shard_count=2))
        assert task.config == config
        result = run_shard(task)
        clone = roundtrip(result)
        assert clone == result

    def test_checkpoint_roundtrip(self):
        point = SettlementCheckpoint(
            time_s=10.0, queries_dispatched=7, provider_credit=3.0,
            provider_query_payments=2.0, owned_wallet_credit=1.0,
            owned_charged=0.5)
        assert roundtrip(point) == point

    def test_partitioner_roundtrip_preserves_assignment(self):
        partitioner = TenantPartitioner(5)
        clone = roundtrip(partitioner)
        ids = [f"t{i:05d}" for i in range(40)]
        assert [clone.shard_of(t) for t in ids] == \
            [partitioner.shard_of(t) for t in ids]
