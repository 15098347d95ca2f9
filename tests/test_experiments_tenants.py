"""Tests for the tenants experiment driver and its CLI subcommand."""

import pytest

from repro.cli import main
from repro.errors import ExperimentError
from repro.experiments.reporting import distribution_cells
from repro.experiments.tenants import (
    TenantExperimentConfig,
    cell_arrivals,
    run_tenant_cell,
    run_tenant_experiment,
    tenant_aggregate_table,
    top_tenant_table,
)

QUICK = dict(tenant_count=12, query_count=60, interarrival_s=1.0, seed=0)


class TestConfig:
    def test_rejects_unknown_scheme(self):
        with pytest.raises(ExperimentError):
            TenantExperimentConfig(scheme="galactic")

    def test_round_trips_population_and_workload_specs(self):
        config = TenantExperimentConfig(churn_period=25, **QUICK)
        assert config.population_spec().tenant_count == 12
        assert config.population_spec().churn_period == 25
        assert config.workload_spec().query_count == 60


class TestRunCell:
    def test_econ_cell_reports_wallets_and_breakdowns(self):
        result = run_tenant_cell(TenantExperimentConfig(
            scheme="econ-cheap", initial_credit=30.0, **QUICK))
        assert result.summary.query_count == 60
        assert result.tenants  # busiest first
        assert result.tenants[0].query_count == max(
            item.query_count for item in result.tenants)
        wallets = result.wallet_by_tenant()
        assert len(wallets) == result.population_size
        # Conservation: seed - charges == wallets left.
        total_charge = sum(item.total_charge for item in result.tenants)
        assert sum(wallets.values()) == pytest.approx(
            30.0 * result.population_size - total_charge, abs=1e-6)

    def test_bypass_cell_has_no_wallets(self):
        result = run_tenant_cell(TenantExperimentConfig(
            scheme="bypass", **QUICK))
        assert result.wallet_credit == ()
        assert result.tenants

    def test_population_is_deterministic(self):
        config = TenantExperimentConfig(**QUICK)
        assert list(cell_arrivals(config).items) \
            == list(cell_arrivals(config).items)


class TestParallelism:
    def test_parallel_results_match_sequential(self):
        configs = [
            TenantExperimentConfig(scheme=name, **QUICK)
            for name in ("econ-cheap", "econ-fast")
        ]
        sequential = run_tenant_experiment(configs, jobs=1)
        parallel = run_tenant_experiment(configs, jobs=2)
        assert [tenant_aggregate_table(cell) for cell in sequential] == \
            [tenant_aggregate_table(cell) for cell in parallel]
        assert [cell.summary for cell in sequential] == \
            [cell.summary for cell in parallel]

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ExperimentError):
            run_tenant_experiment(
                [TenantExperimentConfig(**QUICK)], jobs=0)

    def test_empty_config_list_rejected(self):
        with pytest.raises(ExperimentError):
            run_tenant_experiment([])


class TestTables:
    def test_aggregate_table_lists_population_metrics(self):
        result = run_tenant_cell(TenantExperimentConfig(
            scheme="econ-cheap", **QUICK))
        table = tenant_aggregate_table(result)
        for needle in ("tenants ever active", "cache hit rate",
                       "wallet credit", "queries/tenant"):
            assert needle in table

    def test_top_table_limits_rows(self):
        result = run_tenant_cell(TenantExperimentConfig(
            scheme="econ-cheap", **QUICK))
        table = top_tenant_table(result, limit=3)
        body = [line for line in table.splitlines()[2:] if line.strip()]
        assert len(body) <= 4  # header separator consumed above; <=3 rows + sep

    def test_distribution_cells(self):
        assert distribution_cells([]) == ["-", "-", "-"]
        assert distribution_cells([1.0, 3.0]) == [2.0, 1.0, 3.0]


class TestCli:
    def test_tenants_subcommand_prints_aggregates(self, capsys):
        exit_code = main([
            "tenants", "--n-tenants", "10", "--queries", "40",
            "--schemes", "econ-cheap", "--top", "3",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Tenants - econ-cheap x 10 tenants" in captured.out
        assert "wallet credit" in captured.out
        assert "Top 3 tenants by traffic" in captured.out

    def test_tenants_subcommand_rejects_empty_scheme_list(self, capsys):
        exit_code = main([
            "tenants", "--queries", "10", "--schemes", " , ",
        ])
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err
