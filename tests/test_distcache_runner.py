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
)
from repro.distcache import runner as runner_module
from repro.economy.engine import _TablePricingState
from repro.distcache.partition import QueryRouter
from repro.distcache.runner import epoch_items, routed_epochs
from repro.economy import batch as batch_module
from repro.economy.batch import BatchScheduler
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
from repro.workload.grammar import InvalidationShock, default_shock_grammar
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
    return DistCacheRunner(2, compare_baseline=True).run_cell(CONFIG)


class TestFidelityGate:
    """``--cache-partitions 1`` must be the global-cache run, bitwise."""

    def test_single_partition_is_byte_identical(self, baseline):
        report = DistCacheRunner(1).run_cell(CONFIG)
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
        report = DistCacheRunner(1).run_cell(config)
        assert report.cell.summary == baseline.summary
        assert report.cell.wallet_credit == baseline.wallet_credit

    def test_single_partition_with_churn(self):
        """On both planning paths, also under the stock shock grammar with
        strict maintenance, settled every 5 s so that it shuts structures
        down at the barriers."""
        grammar = default_shock_grammar()
        churned = TenantExperimentConfig(
            scheme="econ-fast", tenant_count=10, query_count=40,
            interarrival_s=1.0, seed=2, churn_period=12,
            settlement_period_s=10.0)
        shocked = replace(churned, settlement_period_s=5.0,
                          strict_maintenance=True, shocks=grammar.shocks,
                          tenant_tiers=grammar.tiers, grammar=grammar)
        for config in (churned, shocked):
            for planning in ("scalar", "batched"):
                config = replace(config, planning=planning)
                baseline = run_tenant_cell(config)
                cell = DistCacheRunner(1).run_cell(config).cell
                assert cell.summary == baseline.summary
                assert cell.tenants == baseline.tenants
                assert cell.wallet_credit == baseline.wallet_credit
                assert cell.churn_waves == baseline.churn_waves
                assert (tenant_aggregate_table(cell)
                        == tenant_aggregate_table(baseline))
                assert top_tenant_table(cell) == top_tenant_table(baseline)


class TestDeterminism:
    def test_repeat_runs_identical(self, two_partitions):
        again = DistCacheRunner(2, compare_baseline=False).run_cell(CONFIG)
        assert again.cell.summary == two_partitions.cell.summary
        assert again.cell.tenants == two_partitions.cell.tenants
        assert again.cell.wallet_credit == two_partitions.cell.wallet_credit
        assert again.checkpoints == two_partitions.checkpoints

    def test_worker_count_never_changes_results(self, two_partitions):
        parallel = DistCacheRunner(
            2, max_workers=2, compare_baseline=False).run_cell(CONFIG)
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
        report = DistCacheRunner(2, compare_baseline=False).run_cell(CONFIG)
        assert report.baseline is None
        assert distcache_divergence_table(report) is None


class TestGuards:
    def test_bypass_scheme_rejected(self):
        config = TenantExperimentConfig(
            scheme="bypass", tenant_count=8, query_count=20)
        with pytest.raises(DistCacheError, match="economy"):
            DistCacheRunner(2).run_cell(config)

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
            DistCacheRunner(16, compare_baseline=False).run_cell(config)

    def test_pooled_cells_warn_in_the_calling_process(self):
        configs = [TenantExperimentConfig(
            scheme=scheme, tenant_count=8, query_count=20,
            interarrival_s=1.0) for scheme in ("econ-cheap", "econ-fast")]
        with pytest.warns(PartitionImbalanceWarning) as caught:
            DistCacheRunner(
                16, max_workers=2, compare_baseline=False).run_cells(configs)
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
            return DistCacheRunner(
                2, max_workers=jobs, compare_baseline=False,
                placement="adaptive").run_cells(configs)

        sequential = run(1)
        assert any(report.handoffs for report in sequential)
        pooled = run(2)
        assert len(pooled) == len(sequential) == 2
        for observed, expected in zip(pooled, sequential):
            _assert_same_run(observed, expected)

    def test_observed_pooled_cells_record_per_scheme(self):
        """Observed cells use the pool too: each cell records into its
        scheme's source (its partitions into ``<scheme>/partition<i>``),
        and two workers write the lines one worker writes."""
        configs = [replace(CONFIG, scheme=scheme)
                   for scheme in ("econ-cheap", "econ-fast")]

        def observe(jobs):
            trace = TraceRecorder(samples=True)
            reports = DistCacheRunner(
                2, max_workers=jobs,
                compare_baseline=False).run_cells(configs, trace)
            return reports, trace

        observed, trace = observe(2)
        sequential, sequential_trace = observe(1)
        assert trace.trace_lines() == sequential_trace.trace_lines()
        assert trace.metrics_lines() == sequential_trace.metrics_lines()
        summaries = sorted((source, fields["partition"])
                           for _, _, source, kind, fields in trace.records
                           if kind == "partition_summary")
        assert summaries == [(scheme, partition)
                             for scheme in ("econ-cheap", "econ-fast")
                             for partition in (0, 1)]
        assert set(trace.counters) == {
            f"{scheme}{suffix}" for scheme in ("econ-cheap", "econ-fast")
            for suffix in ("", "/partition0", "/partition1")}
        plain = DistCacheRunner(2, compare_baseline=False).run_cells(configs)
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
        report = DistCacheRunner(
            2, compare_baseline=False, placement="adaptive").run_cell(CONFIG)
        assert len(seen) == 2 * report.barriers_verified
        sizes = [0] + [point.directory_size for point in report.checkpoints]
        assert any(sizes)
        for epoch, version, entries in seen:
            assert version == epoch - 1
            assert entries == sizes[epoch - 1]


_EPOCH = runner_module.run_partition_epoch



class TestRoutedEpochs:
    """The runner reads one window of epochs ahead and routes each query
    once."""

    @staticmethod
    def _epochs(sizes):
        epochs, query_id = [], 0
        for epoch, size in enumerate(sizes):
            queries = [_query(query_id + index, float(epoch))
                       for index in range(size)]
            query_id += size
            epochs.append((queries, []))
        return epochs

    def test_windows_hold_whole_epochs_up_to_the_batch_bound(self):
        sizes = [600, 400, 100, 1500, 10]
        epochs = list(routed_epochs(self._epochs(sizes), QueryRouter(2)))
        assert [sum(map(len, epoch.arrivals)) for epoch in epochs] == sizes
        # 600 + 400 fit in one window; 100 does not fit beside them; a
        # 1,500-query epoch is a window of its own.
        opened = [epoch.feeds is not None for epoch in epochs]
        assert opened == [True, False, True, True, True]
        first = epochs[0].feeds
        assert sum(map(len, first)) == 1000
        assert [query.query_id for query in first[0] + first[1]] == sorted(
            query.query_id for query in first[0] + first[1])

    def test_the_input_is_read_one_epoch_past_the_window(self):
        read = []

        def epochs():
            for position, epoch in enumerate(self._epochs([600, 500, 10])):
                read.append(position)
                yield epoch

        stream = routed_epochs(epochs(), QueryRouter(2))
        next(stream)
        assert read == [0, 1]
        next(stream)
        assert read == [0, 1, 2]


def _canonical(queries):
    return TenantExperimentConfig(
        scheme="econ-cheap", tenant_count=1000, query_count=queries,
        interarrival_s=1.0, churn_period=500, settlement_period_s=60.0,
        planning="batched", seed=0)


PARITY_CASES = {
    "plain": {},
    "churn": {"churn_period": 40},
    "invalidations": {
        "shocks": (InvalidationShock(at_fraction=0.3, predicate="index"),
                   InvalidationShock(at_fraction=0.6)),
        "strict_maintenance": True},
}


class TestBatchedPartitions:
    """A partitioned cell prices remote structures from memoized overlays
    and plans each window of epochs in one pass, with the scalar run's
    outcomes and the plain cell's pass count."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_batched_matches_scalar(self, monkeypatch, case, seed):
        config = TenantExperimentConfig(
            scheme="econ-cheap", tenant_count=40, query_count=240,
            interarrival_s=1.0, settlement_period_s=20.0, seed=seed,
            **PARITY_CASES[case])
        engines = {}

        def recording(task):
            result = _EPOCH(task)
            engine = runner_module._engine_of(result.scheme)
            engines[engine.partition_index] = engine
            return result

        monkeypatch.setattr(runner_module, "run_partition_epoch", recording)
        runs, books = {}, {}
        for planning in ("scalar", "batched"):
            runs[planning] = DistCacheRunner(
                2, compare_baseline=False, placement="hash").run_cell(
                    replace(config, planning=planning))
            # Every ledger entry and outcome, so a drift too small to
            # move a rounded credit or table still shows.
            books[planning] = [(engines[partition].account.transactions,
                                engines[partition].outcomes)
                               for partition in (0, 1)]
        assert books["batched"] == books["scalar"]
        scalar, batched = runs["scalar"], runs["batched"]
        assert batched.remote_hit_count > 0
        assert batched.remote_hit_count == scalar.remote_hit_count
        assert (batched.remote_dollars_paid.hex()
                == scalar.remote_dollars_paid.hex())
        assert batched.checkpoints == scalar.checkpoints
        assert batched.publications == scalar.publications
        assert _rendered(batched) == _rendered(scalar)

    def test_canonical_cell_plans_like_the_plain_cell(self, monkeypatch):
        passes, fallbacks, remote_states, routed = [], [], [], []
        evaluate = batch_module.evaluate_plan_table
        view_for = BatchScheduler.view_for
        advertise = _TablePricingState.advertise
        partition_of = QueryRouter.partition_of

        def counting_evaluate(table, queries, model):
            passes.append(len(queries))
            return evaluate(table, queries, model)

        def counting_view(self, query):
            view = view_for(self, query)
            if view is None:
                fallbacks.append(query.query_id)
            return view

        def recording_advertise(self, remote_version, surcharge_of):
            if remote_version:
                cache = surcharge_of.__self__.partitioned_cache
                remote_states.append((cache.partition_index, id(self.table),
                                      self.version,
                                      frozenset(cache.directory.entries)))
                assert self.version == cache.version
                assert remote_version == cache.remote_version
            advertise(self, remote_version, surcharge_of)

        def counting_route(self, query):
            routed.append(query.query_id)
            return partition_of(self, query)

        monkeypatch.setattr(batch_module, "evaluate_plan_table",
                            counting_evaluate)
        monkeypatch.setattr(BatchScheduler, "view_for", counting_view)
        monkeypatch.setattr(_TablePricingState, "advertise",
                            recording_advertise)
        monkeypatch.setattr(QueryRouter, "partition_of", counting_route)
        config = _canonical(1000)
        run_tenant_cell(config)
        plain_passes = len(passes)
        passes.clear()
        report = DistCacheRunner(2, compare_baseline=False).run_cell(config)
        assert report.remote_hit_count > 0
        assert len(passes) == plain_passes == 7
        assert sum(passes) == 1000
        assert fallbacks == []
        assert sorted(routed) == list(range(1000))
        # Remote pricing is redone only for a new (table, cache version,
        # advertised entries): a barrier that republishes the same
        # entries keeps it.
        assert remote_states
        assert len(set(remote_states)) == len(remote_states)
