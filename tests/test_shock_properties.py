"""Property tests: conservation under chaos.

Arbitrary seeded shock sequences — invalidations, price-shock windows,
budget-squeeze windows, the strict-maintenance shutdown policy — are
thrown at every scheme and every execution mode, and the books must stay
**bitwise** balanced:

* the provider's ``query_payment`` deposits fold to exactly what the
  outcomes charged (same floats, same order);
* every tenant wallet folds bitwise from its own ledger, and no wallet
  appears or disappears because of a shock (tenant isolation);
* the sharded and partitioned execution modes agree with the plain one
  under the same chaos — byte-identically for shards, barrier-audited
  for partitions.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments.shocks import audited_shock_cell, baseline_config
from repro.experiments.tenants import (
    TenantExperimentConfig,
    run_tenant_cell,
    run_tenant_experiment,
)
from repro.workload.grammar import (
    BudgetSqueeze,
    InvalidationShock,
    PriceShock,
)


fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
durations = st.floats(min_value=0.05, max_value=0.5, allow_nan=False)
price_factors = st.floats(min_value=0.25, max_value=4.0, allow_nan=False,
                          exclude_min=False)
squeeze_factors = st.floats(min_value=0.25, max_value=2.0, allow_nan=False)

invalidations = st.builds(
    InvalidationShock,
    at_fraction=fractions,
    predicate=st.sampled_from(["", "index", "column", "lineitem"]),
)
price_shocks = st.builds(PriceShock, at_fraction=fractions,
                         duration_fraction=durations, factor=price_factors)
budget_squeezes = st.builds(BudgetSqueeze, at_fraction=fractions,
                            duration_fraction=durations,
                            factor=squeeze_factors)

shock_sequences = st.lists(
    st.one_of(invalidations, price_shocks, budget_squeezes),
    min_size=1, max_size=4,
).map(tuple)


def chaos_config(scheme, shocks, seed, strict):
    return TenantExperimentConfig(
        scheme=scheme,
        tenant_count=8,
        query_count=60,
        interarrival_s=5.0,
        seed=seed,
        settlement_period_s=25.0,
        shocks=shocks,
        strict_maintenance=strict,
    )


class TestConservationUnderChaos:
    @given(scheme=st.sampled_from(["econ-col", "econ-cheap", "econ-fast"]),
           shocks=shock_sequences,
           seed=st.integers(min_value=0, max_value=2**16),
           strict=st.booleans())
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_books_balance_bitwise_for_any_shock_sequence(
            self, scheme, shocks, seed, strict):
        config = chaos_config(scheme, shocks, seed, strict)
        cell, audit = audited_shock_cell(config)
        assert audit is not None
        assert audit.exact, (
            f"conservation violated: {audit.query_payments!r} != "
            f"{audit.outcome_charges!r} "
            f"({audit.wallet_ledger_mismatches} ledger mismatches)")
        assert cell.summary.query_count == config.query_count

    @given(shocks=shock_sequences,
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_shocks_preserve_tenant_isolation(self, shocks, seed):
        """Chaos may drain wallets, never create or destroy them — and
        every wallet still folds bitwise from its own ledger."""
        config = chaos_config("econ-cheap", shocks, seed, strict=False)
        shocked, audit = audited_shock_cell(config)
        clean = run_tenant_cell(baseline_config(config))
        shocked_ids = {tenant for tenant, _ in shocked.wallet_credit}
        clean_ids = {tenant for tenant, _ in clean.wallet_credit}
        assert shocked_ids == clean_ids
        assert audit is not None and audit.wallet_ledger_mismatches == 0
        # A wallet exists from its tenant's first query on, so the audit
        # folds exactly one ledger per tenant with traffic.
        assert audit.wallets_audited == len(shocked.tenants)

    @given(shocks=shock_sequences,
           seed=st.integers(min_value=0, max_value=2**16),
           strict=st.booleans())
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_chaos_is_deterministic(self, shocks, seed, strict):
        """The same (shocks, seed) replays byte-identically — chaos is
        seeded, not random."""
        config = chaos_config("econ-cheap", shocks, seed, strict)
        assert run_tenant_cell(config) == run_tenant_cell(config)


class TestExecutionModesUnderChaos:
    @given(shocks=shock_sequences,
           seed=st.integers(min_value=0, max_value=2**12),
           strict=st.booleans())
    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_sharded_cells_bitwise_equal_under_chaos(self, shocks, seed,
                                                     strict):
        config = chaos_config("econ-cheap", shocks, seed, strict)
        plain = run_tenant_cell(config)
        sharded, = run_tenant_experiment([config], shards=2)
        assert sharded == plain

    @given(shocks=shock_sequences,
           seed=st.integers(min_value=0, max_value=2**12))
    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_partitioned_adaptive_cells_conserve_under_chaos(self, shocks,
                                                             seed):
        from repro.distcache import run_partitioned_cell

        config = chaos_config("econ-cheap", shocks, seed, strict=False)
        report = run_partitioned_cell(config, partitions=2,
                                      compare_baseline=False,
                                      placement="adaptive",
                                      handoff_threshold=0.0)
        assert report.barriers_verified > 0
        for checkpoint in report.checkpoints:
            assert checkpoint.query_payments == checkpoint.outcome_charges

    @given(shocks=shock_sequences,
           seed=st.integers(min_value=0, max_value=2**12))
    @settings(max_examples=3, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_single_partition_bitwise_equals_plain_under_chaos(self, shocks,
                                                               seed):
        from repro.distcache import run_partitioned_cell

        config = chaos_config("econ-cheap", shocks, seed, strict=False)
        plain = run_tenant_cell(config)
        report = run_partitioned_cell(config, partitions=1,
                                      compare_baseline=False)
        assert report.cell.summary == plain.summary
        assert report.cell.tenants == plain.tenants
        assert report.cell.wallet_credit == plain.wallet_credit
