"""The observer-purity gate: tracing never perturbs a run.

The hard invariant of ``repro.obs``: attaching a :class:`TraceRecorder`
to any execution path leaves every rendered table, wallet ledger, and
merged report **byte-identical** to the untraced run. Hypothesis draws
cell shapes (population size, query count, settlement grid, scheme,
planning mode, shock grammar) and the property re-runs each drawn cell
traced and untraced; pinned integration cases cover the
cache-partitioned mode, which is too slow to sweep per-example.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.tenants import (
    TenantExperimentConfig,
    run_tenant_cell,
    tenant_aggregate_table,
    top_tenant_table,
)
from repro.obs.trace import TraceRecorder
from repro.workload.grammar import parse_shock

SCHEMES = ("bypass", "econ-cheap")
SHOCKS = (
    (),
    (parse_shock("invalidate@0.4"),),
    (parse_shock("price@0.3:0.3:1.5"), parse_shock("squeeze@0.5:0.2:0.6")),
)


def _rendered(cell):
    """Everything the CLI prints for one cell, plus the raw ledgers."""
    return (
        tenant_aggregate_table(cell),
        top_tenant_table(cell, limit=5),
        cell.summary,
        cell.tenants,
        cell.wallet_credit,
    )


cell_configs = st.builds(
    TenantExperimentConfig,
    scheme=st.sampled_from(SCHEMES),
    tenant_count=st.integers(min_value=2, max_value=6),
    query_count=st.integers(min_value=10, max_value=40),
    interarrival_s=st.sampled_from((5.0, 10.0)),
    seed=st.integers(min_value=0, max_value=5),
    settlement_period_s=st.sampled_from((None, 60.0)),
    planning=st.sampled_from(("scalar", "batched")),
    shocks=st.sampled_from(SHOCKS),
)


class TestTracedCellPurity:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(config=cell_configs)
    def test_traced_cell_is_byte_identical(self, config):
        untraced = run_tenant_cell(config)
        recorder = TraceRecorder()
        traced = run_tenant_cell(config, recorder=recorder)
        assert _rendered(traced) == _rendered(untraced)
        # The recorder actually observed the run (queries dispatched).
        assert recorder.counter("event:QueryArrivalEvent") >= config.query_count

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(config=cell_configs)
    def test_trace_emission_is_deterministic(self, config):
        first = TraceRecorder()
        run_tenant_cell(config, recorder=first)
        second = TraceRecorder()
        run_tenant_cell(config, recorder=second)
        assert first.trace_lines() == second.trace_lines()


class TestTracedModesPurity:
    """Pinned integration cases for the scaling modes (slower, run once)."""

    CONFIG = dict(tenant_count=6, query_count=60, seed=3,
                  settlement_period_s=60.0)

    def test_partitioned_adaptive_traced_run_is_byte_identical(self):
        from repro.distcache.runner import DistCacheRunner

        config = TenantExperimentConfig(scheme="econ-cheap", **self.CONFIG)
        untraced = DistCacheRunner(
            2, compare_baseline=False,
            placement="adaptive").run_cells([config])
        recorder = TraceRecorder()
        traced = DistCacheRunner(
            2, compare_baseline=False,
            placement="adaptive").run_cells([config], recorder)
        assert _rendered(traced[0].cell) == _rendered(untraced[0].cell)
        assert traced[0].checkpoints == untraced[0].checkpoints
        assert traced[0].handoffs == untraced[0].handoffs
        kinds = {record[3] for record in recorder.records}
        assert "settlement_barrier" in kinds
        assert "partition_summary" in kinds

    def test_batched_planning_traced_run_is_byte_identical(self):
        config = TenantExperimentConfig(scheme="econ-cheap",
                                        planning="batched", **self.CONFIG)
        untraced = run_tenant_cell(config)
        recorder = TraceRecorder()
        traced = run_tenant_cell(config, recorder=recorder)
        assert _rendered(traced) == _rendered(untraced)
        batch_windows = [record for record in recorder.records
                         if record[3] == "batch_window"]
        assert batch_windows, "batched planning should record windows"

    def test_shock_grammar_traced_run_is_byte_identical(self):
        from repro.workload.grammar import default_shock_grammar

        grammar = default_shock_grammar()
        config = TenantExperimentConfig(
            scheme="econ-cheap", shocks=grammar.shocks,
            tenant_tiers=grammar.tiers, grammar=grammar, **self.CONFIG)
        untraced = run_tenant_cell(config)
        recorder = TraceRecorder()
        traced = run_tenant_cell(config, recorder=recorder)
        assert _rendered(traced) == _rendered(untraced)
