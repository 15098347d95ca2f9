"""Tests for the partitioned-cell runner: fidelity, determinism, audits.

Every partition of a cell runs in the process that runs the cell; the
``--jobs`` pool fans out whole cells. Beyond fidelity and the audits,
these tests pin:

* **the cell pool** — two schemes on two workers reproduce the
  sequential run byte for byte, and a trace sink keeps cells in this
  process;
* **barrier order** — each epoch starts from its barrier's directory.

Worker-count independence per case, copied state and typed failures are
in ``tests/test_distcache_resident.py``.
"""

from dataclasses import replace

import pytest

from repro.distcache import (
    DistCacheRunner,
    PartitionImbalanceWarning,
    distcache_divergence_table,
    distcache_partition_table,
    distcache_placement_table,
    run_partitioned_cell,
    run_partitioned_experiment,
)
from repro.distcache import runner as runner_module
from repro.distcache.runner import epoch_items
from repro.errors import DistCacheError
from repro.experiments.tenants import (
    TenantCell,
    TenantExperimentConfig,
    run_tenant_cell,
    tenant_aggregate_table,
    top_tenant_table,
)
from repro.obs.trace import TraceRecorder
from repro.simulator.events import (
    ProviderPriceShockEvent,
    StructureInvalidationEvent,
    TenantBudgetSqueezeEvent,
)
from repro.workload.population import TenantLifecycleMarker
from repro.workload.query import Query

CONFIG = TenantExperimentConfig(
    scheme="econ-cheap", tenant_count=16, query_count=60,
    interarrival_s=1.0, seed=1, settlement_period_s=15.0,
)


@pytest.fixture(scope="module")
def baseline():
    return run_tenant_cell(CONFIG)


@pytest.fixture(scope="module")
def two_partitions():
    return run_partitioned_cell(CONFIG, partitions=2, compare_baseline=True)


class TestFidelityGate:
    """``--cache-partitions 1`` must be the global-cache run, bitwise."""

    def test_single_partition_is_byte_identical(self, baseline):
        report = run_partitioned_cell(CONFIG, partitions=1)
        cell = report.cell
        assert cell.summary == baseline.summary
        assert cell.tenants == baseline.tenants
        assert cell.wallet_credit == baseline.wallet_credit
        assert tenant_aggregate_table(cell) == tenant_aggregate_table(baseline)
        assert top_tenant_table(cell) == top_tenant_table(baseline)

    def test_single_partition_without_settlement_period(self):
        config = TenantExperimentConfig(
            scheme="econ-cheap", tenant_count=8, query_count=30,
            interarrival_s=1.0, seed=5)
        baseline = run_tenant_cell(config)
        report = run_partitioned_cell(config, partitions=1)
        assert report.cell.summary == baseline.summary
        assert report.cell.wallet_credit == baseline.wallet_credit

    def test_single_partition_with_churn(self):
        config = TenantExperimentConfig(
            scheme="econ-fast", tenant_count=10, query_count=40,
            interarrival_s=1.0, seed=2, churn_period=12,
            settlement_period_s=10.0)
        baseline = run_tenant_cell(config)
        report = run_partitioned_cell(config, partitions=1)
        assert report.cell.summary == baseline.summary
        assert report.cell.tenants == baseline.tenants
        assert report.cell.wallet_credit == baseline.wallet_credit
        assert report.cell.churn_waves == baseline.churn_waves


class TestDeterminism:
    def test_repeat_runs_identical(self, two_partitions):
        again = run_partitioned_cell(CONFIG, partitions=2,
                                     compare_baseline=False)
        assert again.cell.summary == two_partitions.cell.summary
        assert again.cell.tenants == two_partitions.cell.tenants
        assert again.cell.wallet_credit == two_partitions.cell.wallet_credit
        assert again.checkpoints == two_partitions.checkpoints

    def test_worker_count_never_changes_results(self, two_partitions):
        parallel = run_partitioned_cell(CONFIG, partitions=2, max_workers=2,
                                        compare_baseline=False)
        assert parallel.cell.summary == two_partitions.cell.summary
        assert parallel.cell.tenants == two_partitions.cell.tenants
        assert parallel.cell.wallet_credit == two_partitions.cell.wallet_credit
        assert parallel.checkpoints == two_partitions.checkpoints


class TestAudits:
    def test_every_barrier_checkpointed(self, two_partitions):
        assert two_partitions.barriers_verified >= 2
        epochs = [point.epoch for point in two_partitions.checkpoints]
        assert epochs == list(range(1, len(epochs) + 1))

    def test_provider_income_equals_tenant_charges(self, two_partitions):
        final = two_partitions.checkpoints[-1]
        assert final.query_payments == final.outcome_charges
        assert final.conserved_total == sum(final.outcome_charges)

    def test_queries_partition_without_loss(self, two_partitions):
        served = sum(stats.queries_served
                     for stats in two_partitions.partitions)
        assert served == CONFIG.query_count
        assert two_partitions.cell.summary.query_count == CONFIG.query_count

    def test_each_partition_does_a_slice_of_the_work(self, two_partitions):
        """Unlike a replicated replay, where every worker runs every query
        over the full cache, each partition serves only its routed queries
        and holds only its owned slice of the cache."""
        shared = TenantCell(CONFIG)
        shared.run()
        full_cache_peak = shared.scheme.cache.peak_disk_used_bytes
        for stats in two_partitions.partitions:
            assert 0 < stats.queries_served < CONFIG.query_count
            assert stats.peak_cache_bytes < full_cache_peak

    def test_directory_entries_match_live_structures(self, two_partitions):
        total_structures = sum(stats.local_structures
                               for stats in two_partitions.partitions)
        assert two_partitions.directory_size == total_structures

    def test_remote_traffic_happens(self, two_partitions):
        assert two_partitions.remote_hit_count > 0

    def test_divergence_against_baseline(self, two_partitions, baseline):
        assert two_partitions.baseline == baseline.summary
        assert (two_partitions.cell.summary.cache_hit_rate
                <= baseline.summary.cache_hit_rate)


class TestReportTables:
    def test_partition_table_renders(self, two_partitions):
        table = distcache_partition_table(two_partitions)
        assert "Cache partitions - econ-cheap x 2 partitions" in table
        assert "conservation: exact" in table

    def test_divergence_table_renders(self, two_partitions):
        table = distcache_divergence_table(two_partitions)
        assert "Divergence vs global cache" in table
        assert "cache_hit_rate" in table
        assert "remote_hits" in table

    def test_divergence_table_absent_without_baseline(self):
        report = run_partitioned_cell(CONFIG, partitions=2,
                                      compare_baseline=False)
        assert report.baseline is None
        assert distcache_divergence_table(report) is None


class TestGuards:
    def test_bypass_scheme_rejected(self):
        config = TenantExperimentConfig(
            scheme="bypass", tenant_count=8, query_count=20)
        with pytest.raises(DistCacheError, match="economy"):
            run_partitioned_cell(config, partitions=2)

    def test_warmup_rejected(self):
        config = TenantExperimentConfig(
            scheme="econ-cheap", tenant_count=8, query_count=20,
            warmup_queries=5)
        with pytest.raises(DistCacheError, match="warmup"):
            run_partitioned_cell(config, partitions=2)

    def test_invalid_counts_rejected(self):
        with pytest.raises(DistCacheError):
            DistCacheRunner(0)
        with pytest.raises(DistCacheError):
            DistCacheRunner(2, max_workers=0)
        with pytest.raises(DistCacheError):
            DistCacheRunner(2).run_cells([])

    def test_imbalance_warns_when_partitions_exceed_templates(self):
        config = TenantExperimentConfig(
            scheme="econ-cheap", tenant_count=8, query_count=20,
            interarrival_s=1.0)
        with pytest.warns(PartitionImbalanceWarning):
            run_partitioned_cell(config, partitions=16,
                                 compare_baseline=False)

    def test_pooled_cells_warn_in_the_calling_process(self):
        configs = [TenantExperimentConfig(
            scheme=scheme, tenant_count=8, query_count=20,
            interarrival_s=1.0) for scheme in ("econ-cheap", "econ-fast")]
        with pytest.warns(PartitionImbalanceWarning) as caught:
            run_partitioned_experiment(configs, partitions=16, jobs=2,
                                       compare_baseline=False)
        assert len(caught) == 2


class TestMultiCell:
    def test_run_cells_orders_like_configs(self):
        configs = [
            TenantExperimentConfig(scheme="econ-cheap", tenant_count=8,
                                   query_count=24, settlement_period_s=10.0),
            TenantExperimentConfig(scheme="econ-fast", tenant_count=8,
                                   query_count=24, settlement_period_s=10.0),
        ]
        reports = DistCacheRunner(2, compare_baseline=False).run_cells(configs)
        assert [r.cell.summary.scheme_name for r in reports] == [
            "econ-cheap", "econ-fast"]


def _query(query_id, time_s):
    return Query(query_id=query_id, template_name="t", table_name="x",
                 predicates=(), projection_columns=(), arrival_time=time_s)


class TestEpochCut:
    """Epochs close where the barrier's settlement dispatches in the
    kernel: after same-instant lifecycle markers, before same-instant
    shocks and queries."""

    def test_items_at_a_barrier_instant(self):
        before = _query(0, 5.0)
        arrival = TenantLifecycleMarker(10.0, range(1, 2), "arrival")
        churn = TenantLifecycleMarker(10.0, (0,), "churn")
        at_barrier = _query(1, 10.0)
        invalidation = StructureInvalidationEvent(time_s=10.0)
        price = ProviderPriceShockEvent(time_s=10.0, factor=2.0)
        squeeze = TenantBudgetSqueezeEvent(time_s=10.0, factor=0.5)
        early = ProviderPriceShockEvent(time_s=9.0, factor=3.0)
        epochs = list(epoch_items(
            [before, arrival, churn, at_barrier],
            [squeeze, price, invalidation, early], [10.0, 20.0]))
        assert epochs == [
            ([before, arrival, churn], [early]),
            ([at_barrier], [invalidation, price, squeeze]),
        ]

    def test_the_last_barrier_takes_everything_left(self):
        # With no trailing interval the last query lands exactly on the
        # final barrier; it still belongs to the final epoch.
        first = _query(0, 0.0)
        last = _query(1, 20.0)
        shock = TenantBudgetSqueezeEvent(time_s=20.0, factor=0.5)
        epochs = list(epoch_items([first, last], [shock], [5.0, 10.0, 20.0]))
        assert epochs == [([first], []), ([], []), ([last], [shock])]


def _rendered(report) -> str:
    return "\n".join([
        tenant_aggregate_table(report.cell),
        top_tenant_table(report.cell),
        distcache_partition_table(report),
        distcache_placement_table(report) or "",
    ])


def _assert_same_run(observed, expected) -> None:
    assert observed.cell == expected.cell
    assert observed.partitions == expected.partitions
    assert observed.checkpoints == expected.checkpoints
    assert observed.publications == expected.publications
    assert observed.handoffs == expected.handoffs
    assert _rendered(observed) == _rendered(expected)


@pytest.mark.filterwarnings(
    "ignore::repro.distcache.PartitionImbalanceWarning")
class TestOneProcess:
    def test_two_workers_over_two_schemes_match_one(self):
        configs = [replace(CONFIG, scheme=scheme)
                   for scheme in ("econ-cheap", "econ-fast")]

        def run(jobs):
            return run_partitioned_experiment(configs, partitions=2,
                                              jobs=jobs, placement="adaptive",
                                              compare_baseline=False)

        sequential = run(1)
        assert any(report.handoffs for report in sequential)
        pooled = run(2)
        assert len(pooled) == len(sequential) == 2
        for observed, expected in zip(pooled, sequential):
            _assert_same_run(observed, expected)

    def test_observed_cells_run_here_whatever_the_jobs(self):
        """A recorder keeps the cells in this process, so every cell's
        partitions record into it."""
        configs = [replace(CONFIG, scheme=scheme)
                   for scheme in ("econ-cheap", "econ-fast")]
        trace = TraceRecorder()
        observed = run_partitioned_experiment(
            configs, partitions=2, jobs=2, compare_baseline=False,
            recorder=trace)
        summaries = [fields["partition"] for _, _, _, kind, fields
                     in trace.records if kind == "partition_summary"]
        assert summaries == [0, 1, 0, 1]
        plain = run_partitioned_experiment(configs, partitions=2,
                                           compare_baseline=False)
        for report, expected in zip(observed, plain):
            _assert_same_run(report, expected)

    def test_each_epoch_starts_from_its_barriers_directory(self,
                                                          monkeypatch):
        """The barrier folds its publication onto every partition before
        the next epoch runs."""
        seen = []

        def recording(task):
            cache = runner_module._engine_of(task.scheme).partitioned_cache
            seen.append((task.epoch, cache.directory.version,
                         len(cache.directory)))
            return _EPOCH(task)

        monkeypatch.setattr(runner_module, "run_partition_epoch", recording)
        report = run_partitioned_cell(CONFIG, partitions=2,
                                      placement="adaptive",
                                      compare_baseline=False)
        assert len(seen) == 2 * report.barriers_verified
        sizes = [0] + [point.directory_size for point in report.checkpoints]
        assert any(sizes)
        for epoch, version, entries in seen:
            assert version == epoch - 1
            assert entries == sizes[epoch - 1]


_EPOCH = runner_module.run_partition_epoch

