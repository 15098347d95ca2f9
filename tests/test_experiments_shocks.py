"""Tests for the shock-resilience experiment (repro.experiments.shocks)."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.shocks import (
    ConservationAudit,
    audited_shock_cell,
    baseline_config,
    run_shock_resilience,
    shock_resilience_table,
)
from repro.experiments.tenants import (
    TenantExperimentConfig,
    run_tenant_cell,
)
from repro.workload.grammar import (
    InvalidationShock,
    PriceShock,
    default_shock_grammar,
)
from repro.workload.scenarios import build_scenario


SHOCKS = (InvalidationShock(at_fraction=0.4, predicate="index"),
          PriceShock(at_fraction=0.5, duration_fraction=0.2, factor=3.0))


def shocked_config(scheme="econ-cheap", **overrides):
    defaults = dict(
        scheme=scheme, tenant_count=8, query_count=50, interarrival_s=5.0,
        seed=11, settlement_period_s=25.0, shocks=SHOCKS,
    )
    defaults.update(overrides)
    return TenantExperimentConfig(**defaults)


class TestBaselineConfig:
    def test_strips_only_the_fault_knobs(self):
        config = shocked_config(strict_maintenance=True,
                                grammar=default_shock_grammar())
        clean = baseline_config(config)
        assert clean.shocks == ()
        assert clean.strict_maintenance is False
        assert clean.grammar == config.grammar
        assert clean.scheme == config.scheme
        assert clean.seed == config.seed


class TestAuditedCell:
    def test_cell_is_bitwise_identical_to_run_tenant_cell(self):
        config = shocked_config()
        cell, audit = audited_shock_cell(config)
        assert cell == run_tenant_cell(config)
        assert audit is not None and audit.exact
        assert audit.wallets_audited == config.tenant_count

    def test_bypass_has_no_audit(self):
        cell, audit = audited_shock_cell(shocked_config(scheme="bypass"))
        assert audit is None
        assert len(cell.wallet_credit) == 0

    def test_audit_exact_is_a_bitwise_claim(self):
        good = ConservationAudit(query_payments=1.25, outcome_charges=1.25,
                                 provider_ledger=2.0, provider_credit=2.0,
                                 wallets_audited=3,
                                 wallet_ledger_mismatches=0)
        assert good.exact
        off_by_ulp = ConservationAudit(
            query_payments=1.25, outcome_charges=1.25 + 2**-50,
            provider_ledger=2.0, provider_credit=2.0,
            wallets_audited=3, wallet_ledger_mismatches=0)
        assert not off_by_ulp.exact
        bad_wallet = ConservationAudit(
            query_payments=1.25, outcome_charges=1.25,
            provider_ledger=2.0, provider_credit=2.0,
            wallets_audited=3, wallet_ledger_mismatches=1)
        assert not bad_wallet.exact


class TestResilienceRunner:
    def test_requires_at_least_one_cell_and_one_fault(self):
        with pytest.raises(ExperimentError):
            run_shock_resilience([])
        with pytest.raises(ExperimentError, match="injects no faults"):
            run_shock_resilience([shocked_config(shocks=())])

    def test_strict_maintenance_alone_counts_as_a_fault(self):
        results = run_shock_resilience(
            [shocked_config(shocks=(), strict_maintenance=True,
                            query_count=30)])
        assert results[0].scheme == "econ-cheap"

    def test_pairs_clean_and_shocked_cells(self):
        result, = run_shock_resilience([shocked_config()])
        assert result.baseline.config == baseline_config(shocked_config())
        assert result.shocked.config == shocked_config()
        assert result.audit is not None and result.audit.exact
        assert result.cost_ratio >= 0.0
        # The invalidation forces evictions the clean twin never sees.
        assert (result.shocked.summary.evictions
                > result.baseline.summary.evictions)

    def test_parallel_results_are_byte_identical(self):
        configs = [shocked_config(scheme=name, query_count=40)
                   for name in ("econ-col", "econ-cheap")]
        sequential = run_shock_resilience(configs)
        parallel = run_shock_resilience(configs, jobs=2)
        assert sequential == parallel
        assert (shock_resilience_table(sequential)
                == shock_resilience_table(parallel))

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ExperimentError):
            run_shock_resilience([shocked_config()], jobs=0)


class TestResilienceTable:
    def test_table_reports_conservation_per_scheme(self):
        results = run_shock_resilience(
            [shocked_config(scheme="bypass", query_count=30),
             shocked_config(scheme="econ-cheap", query_count=30)])
        table = shock_resilience_table(results)
        assert "Scheme resilience under market shocks" in table
        assert "cost+shocks" in table
        assert "n/a" in table        # bypass: no economy to audit
        assert "exact" in table      # econ-cheap: bitwise conservation
        assert "VIOLATED" not in table


class TestShocksScenarioFamily:
    def test_build_scenario_compiles_the_stock_grammar(self):
        scenario = build_scenario("shocks", query_count=60,
                                  interarrival_s=4.0, seed=3)
        assert scenario.name == "shocks"
        assert scenario.query_count == 60
        assert scenario.shocks, "the stock grammar injects shocks"
        assert "class(es)" in scenario.description
        labels = {change.label for change in scenario.phase_changes}
        assert labels == {"flash-crowd", "crowd-end"}

    def test_scenario_is_seed_deterministic(self):
        first = build_scenario("shocks", query_count=40, seed=7)
        second = build_scenario("shocks", query_count=40, seed=7)
        assert first == second
        assert first != build_scenario("shocks", query_count=40, seed=8)
