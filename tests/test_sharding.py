"""Tests for the process-sharded tenant execution subsystem.

Covers the partitioner's stability, the shard-scoped registry's ownership
gates, the worker/coordinator/merge pipeline, the determinism barriers,
and — the acceptance invariant — byte-identical report tables between
sharded and unsharded runs for the same seed.
"""

import dataclasses
import os

import pytest
import wallet_oracle as oracle

from repro.economy.tenancy import TenantProfile, TenantRegistry
from repro.economy.user_model import UserModel
from repro.errors import ShardingError, WorkloadError
from repro.experiments.tenants import (
    TenantExperimentConfig,
    cell_arrivals,
    run_tenant_cell,
    run_tenant_experiment,
    tenant_aggregate_table,
    top_tenant_table,
)
from repro.obs.manifest import config_hash
from repro.sharding import coordinator as coordinator_module
from repro.sharding import (
    ShardCoordinator,
    ShardImbalanceWarning,
    ShardPlan,
    ShardScopedRegistry,
    ShardTask,
    TenantPartitioner,
    merge_shard_results,
    run_shard,
    stable_tenant_hash,
)
from repro.sharding.merge import merge_shard_wallets
from repro.workload.population import (GenerativeProfileSource,
                                       PopulationSpec, tenant_id_for)
from repro.workload.query import Query

QUICK = dict(tenant_count=12, query_count=60, interarrival_s=1.0, seed=0)


def _query(tenant_id: str) -> Query:
    return Query(query_id=0, template_name="t", table_name="lineitem",
                 predicates=(), projection_columns=("l_quantity",),
                 tenant_id=tenant_id)


class TestPartitioner:
    def test_hash_is_stable_and_spread(self):
        partitioner = TenantPartitioner(shard_count=4)
        ids = [f"t{i:05d}" for i in range(200)]
        first = [partitioner.shard_of(tenant_id) for tenant_id in ids]
        again = [TenantPartitioner(4).shard_of(tenant_id) for tenant_id in ids]
        assert first == again
        assert all(0 <= shard < 4 for shard in first)
        assert len(set(first)) == 4  # 200 ids cover every shard

    def test_hash_survives_process_boundary(self):
        # blake2b, not the salted builtin: a subprocess must agree.
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        expected = stable_tenant_hash("t00042")
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.sharding import stable_tenant_hash;"
             "print(stable_tenant_hash('t00042'))"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert int(out.stdout.strip()) == expected

    def test_single_shard_owns_everything(self):
        partitioner = TenantPartitioner(1)
        assert partitioner.shard_of("anything") == 0
        assert partitioner.owns(0, "anything")

    def test_split_partitions_without_loss(self):
        ids = [f"t{i:05d}" for i in range(50)]
        parts = TenantPartitioner(3).split(ids)
        assert sorted(sum(parts, [])) == sorted(ids)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ShardingError):
            TenantPartitioner(0)
        with pytest.raises(ShardingError):
            TenantPartitioner(2).shard_of("")
        with pytest.raises(ShardingError):
            TenantPartitioner(2).owns(2, "a")


class TestShardScopedRegistry:
    SPEC = PopulationSpec(tenant_count=8, initial_credit=10.0,
                          budget_sigma=0.5, seed=5)

    def _registry(self, shard_index, shards=2, spec=SPEC):
        source = GenerativeProfileSource(spec=spec)
        partitioner = TenantPartitioner(shards)
        return (ShardScopedRegistry(source, partitioner, shard_index),
                partitioner, source)

    @staticmethod
    def _arrive(registry, count):
        # The replicated arrival stream: every shard observes every id.
        for index in range(count):
            registry.activate(tenant_id_for(index), now=0.0)

    def test_materialises_only_owned_states(self):
        registry, partitioner, _ = self._registry(0)
        self._arrive(registry, 8)
        ids = [tenant_id_for(index) for index in range(8)]
        owned = [tid for tid in ids if partitioner.owns(0, tid)]
        assert 0 < len(owned) < len(ids)
        assert [tenant_id for tenant_id, _ in registry.wallets().items()] \
            == owned
        assert registry.population_size == 8
        for tenant_id in ids:
            registry.charge(tenant_id, 1.0, now=1.0)
        assert [state.tenant_id for state in registry.states()] == owned

    def test_foreign_charge_is_tallied_not_booked(self):
        registry, partitioner, _ = self._registry(0)
        self._arrive(registry, 8)
        foreign = next(tenant_id_for(i) for i in range(8)
                       if not partitioner.owns(0, tenant_id_for(i)))
        registry.charge(foreign, 3.0, now=1.0)
        assert registry.foreign_charged == 3.0
        assert registry.foreign_charge_count == 1
        assert registry.total_charged() == 0.0  # no wallet was touched
        assert registry.materialized_tenant_count() == 0

    def test_foreign_state_never_materialises(self):
        registry, partitioner, _ = self._registry(0)
        foreign = next(tenant_id_for(i) for i in range(8)
                       if not partitioner.owns(0, tenant_id_for(i)))
        with pytest.raises(ShardingError):
            registry.ensure(foreign)
        assert registry.activate(foreign) is None
        assert registry.deactivate(foreign) is None
        registry.record_regret(foreign, [], 1.0)
        assert foreign not in registry
        assert registry.materialized_tenant_count() == 0

    def test_foreign_budget_matches_unsharded_bitwise(self):
        source = GenerativeProfileSource(spec=self.SPEC)
        profiles = [source.profile_for(i) for i in range(8)]
        assert len({p.budget_multiplier for p in profiles}) > 1
        base = TenantRegistry()
        for profile in profiles:
            base.register(profile)
        model = UserModel()
        partitioner = TenantPartitioner(2)
        for shard in (0, 1):
            scoped = ShardScopedRegistry(source, partitioner, shard)
            self._arrive(scoped, 8)
            for profile in profiles:
                query = _query(profile.tenant_id)
                expected = base.budget_for(query, 10.0, 4.0, model)
                observed = scoped.budget_for(query, 10.0, 4.0, model)
                assert type(observed) is type(expected)
                assert repr(observed) == repr(expected)

    def test_shard_wallets_hold_owned_tenants_in_mint_order(self):
        registry, partitioner, _ = self._registry(1)
        self._arrive(registry, 8)
        owned = [tenant_id_for(index) for index in range(8)
                 if partitioner.owns(1, tenant_id_for(index))]
        assert owned  # shard 1 owns someone in this population
        registry.charge(owned[0], 2.5, now=1.0)
        wallets = list(registry.wallets().items())
        assert [tenant_id for tenant_id, _ in wallets] == owned
        assert [credit for _, credit in wallets] == \
            [7.5] + [10.0] * (len(wallets) - 1)
        assert wallets == [(tenant_id, credit) for _, tenant_id, credit
                           in oracle.owned_wallets(registry)]

    def test_register_rejects_foreign_profile(self):
        registry, partitioner, _ = self._registry(0)
        adhoc_foreign = next(
            f"x{i}" for i in range(100)
            if not partitioner.owns(0, f"x{i}"))
        with pytest.raises(ShardingError):
            registry.register(TenantProfile(adhoc_foreign))

    def test_adhoc_tenants_merge_in_global_first_touch_order(self):
        # "zeta" (shard 1) is touched before "alpha" (shard 0): the merged
        # wallet order must be first-touch (zeta, alpha) like the unsharded
        # registry's registration order, not lexicographic.
        spec = PopulationSpec(tenant_count=4, initial_credit=5.0)
        source = GenerativeProfileSource(spec=spec)
        partitioner = TenantPartitioner(2)
        base = TenantRegistry()
        for index in range(4):
            base.register(source.profile_for(index))
        scoped = [ShardScopedRegistry(source, partitioner, shard)
                  for shard in (0, 1)]
        assert partitioner.shard_of("zeta") != partitioner.shard_of("alpha")
        for registry in scoped:
            self._arrive(registry, 4)
        for tenant_id in ("zeta", "alpha"):  # the replicated call stream
            base.charge(tenant_id, 0.5, now=1.0)
            for registry in scoped:
                registry.charge(tenant_id, 0.5, now=1.0)
        merged = merge_shard_wallets(
            [(registry.wallets(), registry.adhoc_ranks())
             for registry in scoped])
        assert merged == base.wallets()
        assert list(merged.items()) == oracle.merged_shard_wallets(scoped)

    def test_zero_charge_reserves_no_adhoc_slot(self):
        # Base charge() returns before ensure() on amount == 0; the scoped
        # registry must mirror that or ad-hoc ordering diverges.
        spec = PopulationSpec(tenant_count=1, initial_credit=5.0)
        source = GenerativeProfileSource(spec=spec)
        partitioner = TenantPartitioner(2)
        base = TenantRegistry()
        base.register(source.profile_for(0))
        scoped = [ShardScopedRegistry(source, partitioner, shard)
                  for shard in (0, 1)]
        for registry in scoped:
            self._arrive(registry, 1)
        for registry in (base, *scoped):
            registry.charge("zeta", 0.0, now=1.0)   # must not register zeta
            registry.charge("alpha", 1.0, now=1.0)
            registry.charge("zeta", 1.0, now=2.0)   # now zeta registers
        merged = merge_shard_wallets(
            [(registry.wallets(), registry.adhoc_ranks())
             for registry in scoped])
        assert [tenant_id for tenant_id, _ in merged.items()] == \
            [tenant_id for tenant_id, _ in base.wallets().items()]


class TestWorkerAndMerge:
    def test_shards_cover_population_disjointly(self):
        config = TenantExperimentConfig(scheme="econ-cheap", **QUICK)
        results = [run_shard(ShardTask(config, index, 3)) for index in range(3)]
        owned_ids = [tenant_id for result in results
                     for tenant_id, _ in result.wallets.items()]
        assert len(owned_ids) == len(set(owned_ids))
        population = cell_arrivals(config).population
        assert len(owned_ids) == population.tenant_count
        # The replicated summary agrees bitwise on every shard.
        assert results[0].summary == results[1].summary == results[2].summary

    def test_merge_rejects_missing_and_duplicate_shards(self):
        config = TenantExperimentConfig(scheme="econ-cheap", **QUICK)
        results = [run_shard(ShardTask(config, index, 2)) for index in range(2)]
        with pytest.raises(ShardingError):
            merge_shard_results(results[:1], config)
        with pytest.raises(ShardingError):
            merge_shard_results([results[0], results[0]], config)

    def test_merge_rejects_diverged_summary(self):
        config = TenantExperimentConfig(scheme="econ-cheap", **QUICK)
        results = [run_shard(ShardTask(config, index, 2)) for index in range(2)]
        tampered = dataclasses.replace(
            results[1],
            summary=dataclasses.replace(results[1].summary,
                                        operating_cost=123.456),
        )
        with pytest.raises(ShardingError, match="determinism barrier"):
            merge_shard_results([results[0], tampered], config)

    def test_merge_rejects_diverged_checkpoint(self):
        config = TenantExperimentConfig(scheme="econ-cheap", **QUICK)
        results = [run_shard(ShardTask(config, index, 2)) for index in range(2)]
        assert results[1].checkpoints
        bad_point = dataclasses.replace(results[1].checkpoints[-1],
                                        provider_credit=-1.0)
        tampered = dataclasses.replace(
            results[1],
            checkpoints=results[1].checkpoints[:-1] + (bad_point,),
        )
        with pytest.raises(ShardingError, match="determinism barrier"):
            merge_shard_results([results[0], tampered], config)

    def test_merge_rejects_mistallied_foreign_charges(self):
        config = TenantExperimentConfig(scheme="econ-cheap", **QUICK)
        results = [run_shard(ShardTask(config, index, 2)) for index in range(2)]
        tampered = dataclasses.replace(
            results[1], foreign_charged=results[1].foreign_charged + 1.0)
        with pytest.raises(ShardingError, match="conservation"):
            merge_shard_results([results[0], tampered], config)

    def test_merge_rejects_conservation_violation(self):
        config = TenantExperimentConfig(scheme="econ-cheap", **QUICK)
        results = [run_shard(ShardTask(config, index, 2)) for index in range(2)]
        # Shift a wallet balance: the shard-local books no longer balance.
        wallets = results[1].wallets
        index, credit = next(iter(wallets.touched.items()))
        tampered = dataclasses.replace(
            results[1],
            wallets=dataclasses.replace(
                wallets, touched={**wallets.touched, index: credit + 5.0}),
            checkpoints=tuple(
                dataclasses.replace(
                    point, owned_wallet_credit=point.owned_wallet_credit + 5.0)
                for point in results[1].checkpoints
            ),
        )
        with pytest.raises(ShardingError, match="conservation"):
            merge_shard_results([results[0], tampered], config)

    def test_merge_rejects_a_wallet_two_shards_report(self):
        config = TenantExperimentConfig(scheme="econ-cheap", **QUICK)
        results = [run_shard(ShardTask(config, index, 2)) for index in range(2)]
        wallets = results[1].wallets
        stolen = dict(results[0].wallets.touched)
        tampered = dataclasses.replace(results[1], wallets=dataclasses.replace(
            wallets, touched={**wallets.touched, **stolen}))
        with pytest.raises(ShardingError, match="more than one shard"):
            merge_shard_results([results[0], tampered], config)

    def test_merge_rejects_owned_counts_short_of_the_population(self):
        config = TenantExperimentConfig(scheme="econ-cheap", **QUICK)
        results = [run_shard(ShardTask(config, index, 2)) for index in range(2)]
        wallets = results[1].wallets
        tampered = dataclasses.replace(results[1], wallets=dataclasses.replace(
            wallets, owned=bytes(wallets.minted)))
        with pytest.raises(ShardingError, match="do not sum"):
            merge_shard_results([results[0], tampered], config)

    def test_invalid_task_rejected(self):
        config = TenantExperimentConfig(scheme="econ-cheap", **QUICK)
        with pytest.raises(ShardingError):
            ShardTask(config, shard_index=2, shard_count=2)
        with pytest.raises(ShardingError):
            run_shard("not a task")


class TestCoordinator:
    def test_plan_validation(self):
        with pytest.raises(ShardingError):
            ShardPlan(shard_count=0)
        with pytest.raises(ShardingError):
            ShardPlan(shard_count=1, max_workers=0)
        with pytest.raises(ShardingError):
            ShardCoordinator(2).run_cells([])

    def test_imbalance_warning(self):
        config = TenantExperimentConfig(
            scheme="econ-cheap", tenant_count=2, query_count=10,
            interarrival_s=1.0, seed=0)
        with pytest.warns(ShardImbalanceWarning):
            ShardCoordinator(5).tasks_for(config)

    def test_report_audit_trail(self):
        config = TenantExperimentConfig(scheme="econ-cheap",
                                        settlement_period_s=10.0, **QUICK)
        report = ShardCoordinator(2).run_cell(config)
        assert report.shard_count == 2
        assert sum(report.owned_tenants_per_shard) == \
            report.cell.population_size
        assert report.barriers_verified > 1  # periodic + final
        assert report.max_conservation_residual < 1e-6

    def test_owned_states_shrink_with_shards(self):
        """The resource sharding saves: each worker materialises only its
        own tenants' states, fewer as the shard count grows."""
        config = TenantExperimentConfig(scheme="econ-cheap", **QUICK)
        largest = [max(ShardCoordinator(shards).run_cell(config)
                       .owned_tenants_per_shard)
                   for shards in (1, 2, 4)]
        assert QUICK["tenant_count"] == largest[0] > largest[1] > largest[2]


_PARENT_PID = os.getpid()


def _die_running_shard_one(task):
    """The worker running shard 1 dies; this process never does."""
    if task.shard_index == 1 and os.getpid() != _PARENT_PID:
        os._exit(1)
    return run_shard(task)


def _raise_in_shard_one(task):
    if task.shard_index == 1:
        raise KeyError("lost shard state")
    return run_shard(task)


def _workload_error_in_shard_one(task):
    if task.shard_index == 1:
        raise WorkloadError("bad arrivals")
    return run_shard(task)


class TestTypedFailures:
    CONFIG = TenantExperimentConfig(scheme="econ-cheap", **QUICK)

    def test_dead_worker_names_shard_and_cell(self, monkeypatch):
        monkeypatch.setattr(coordinator_module, "run_shard",
                            _die_running_shard_one)
        with pytest.raises(ShardingError, match="died") as caught:
            ShardCoordinator(2, max_workers=2).run_cell(self.CONFIG)
        message = str(caught.value)
        assert message.startswith("tenant shard ")
        assert "of 2, cell config " + config_hash(self.CONFIG) in message

    @pytest.mark.parametrize("workers", [1, 2])
    def test_exception_escaping_a_shard_is_typed(self, monkeypatch,
                                                 workers):
        monkeypatch.setattr(coordinator_module, "run_shard",
                            _raise_in_shard_one)
        with pytest.raises(ShardingError, match="KeyError") as caught:
            ShardCoordinator(2, max_workers=workers).run_cell(self.CONFIG)
        assert str(caught.value).startswith(
            f"tenant shard 1 of 2, cell config {config_hash(self.CONFIG)}: ")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_library_errors_keep_their_type(self, monkeypatch, workers):
        monkeypatch.setattr(coordinator_module, "run_shard",
                            _workload_error_in_shard_one)
        with pytest.raises(WorkloadError) as caught:
            ShardCoordinator(2, max_workers=workers).run_cell(self.CONFIG)
        assert str(caught.value) == (
            f"tenant shard 1 of 2, cell config {config_hash(self.CONFIG)}: "
            "bad arrivals")


class TestByteIdentity:
    """The acceptance invariant: sharded == unsharded, byte for byte."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_tables_identical_for_shard_counts(self, shards):
        config = TenantExperimentConfig(scheme="econ-cheap", churn_period=20,
                                        **QUICK)
        base = run_tenant_cell(config)
        cell = ShardCoordinator(shards).run_cell(config).cell
        assert tenant_aggregate_table(cell) == tenant_aggregate_table(base)
        assert top_tenant_table(cell) == top_tenant_table(base)
        assert cell.summary == base.summary
        assert cell.wallet_credit == base.wallet_credit
        assert cell.tenants == base.tenants

    def test_process_pool_path_identical(self):
        config = TenantExperimentConfig(scheme="econ-fast", **QUICK)
        base = run_tenant_cell(config)
        cell = ShardCoordinator(2, max_workers=2).run_cell(config).cell
        assert tenant_aggregate_table(cell) == tenant_aggregate_table(base)
        assert top_tenant_table(cell) == top_tenant_table(base)

    def test_bypass_scheme_shards_without_economy(self):
        config = TenantExperimentConfig(scheme="bypass", **QUICK)
        base = run_tenant_cell(config)
        report = ShardCoordinator(3).run_cell(config)
        assert tenant_aggregate_table(report.cell) == \
            tenant_aggregate_table(base)
        assert len(report.cell.wallet_credit) == 0
        assert report.barriers_verified == 0

    def test_coordinator_cells_share_the_pool(self):
        configs = [TenantExperimentConfig(scheme=name, **QUICK)
                   for name in ("econ-cheap", "econ-fast")]
        plain = run_tenant_experiment(configs)
        sharded = [report.cell for report in
                   ShardCoordinator(2, max_workers=2).run_cells(configs)]
        assert [tenant_aggregate_table(cell) for cell in plain] == \
            [tenant_aggregate_table(cell) for cell in sharded]
