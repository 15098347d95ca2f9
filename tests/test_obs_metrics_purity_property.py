"""The metrics-purity gate: sampling never perturbs a run.

The metrics twin of ``test_obs_purity_property.py``: attaching a
recorder that takes samples (alone or also keeping a trace) to any
execution path leaves every rendered table, wallet ledger, and merged
report **byte-identical** to the unobserved run. Hypothesis sweeps drawn
cell shapes; pinned integration cases cover ``--cache-partitions 2
--placement adaptive`` and batched planning, which are too slow to sweep
per-example.
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


def metrics_recorder():
    """A recorder as ``--metrics`` alone builds it."""
    return TraceRecorder(events=False, samples=True)


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


class TestMetricsCellPurity:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(config=cell_configs)
    def test_metrics_cell_is_byte_identical(self, config):
        plain = run_tenant_cell(config)
        metrics = metrics_recorder()
        observed = run_tenant_cell(config, recorder=metrics)
        assert _rendered(observed) == _rendered(plain)
        # The recorder actually observed the run.
        assert metrics.counter("event:QueryArrivalEvent") \
            >= config.query_count
        if config.settlement_period_s is not None:
            assert len(metrics.samples) > 0

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(config=cell_configs)
    def test_metrics_emission_is_deterministic(self, config):
        first = metrics_recorder()
        run_tenant_cell(config, recorder=first)
        second = metrics_recorder()
        run_tenant_cell(config, recorder=second)
        assert first.metrics_lines() == second.metrics_lines()

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(config=cell_configs)
    def test_teed_trace_plus_metrics_is_byte_identical(self, config):
        plain = run_tenant_cell(config)
        both = TraceRecorder(events=True, samples=True)
        observed = run_tenant_cell(config, recorder=both)
        assert _rendered(observed) == _rendered(plain)
        # One recorder writes both artifacts, each byte-identical to the
        # one a trace-only or a metrics-only run writes.
        trace = TraceRecorder()
        run_tenant_cell(config, recorder=trace)
        metrics = metrics_recorder()
        run_tenant_cell(config, recorder=metrics)
        assert both.trace_lines() == trace.trace_lines()
        assert both.metrics_lines() == metrics.metrics_lines()


class TestMetricsModesPurity:
    """Pinned integration cases for the scaling modes (slower, run once)."""

    CONFIG = dict(tenant_count=6, query_count=60, seed=3,
                  settlement_period_s=60.0)

    def test_metrics_only_recorder_stores_no_event_records(self):
        config = TenantExperimentConfig(scheme="econ-cheap", **self.CONFIG)
        metrics = metrics_recorder()
        run_tenant_cell(config, recorder=metrics)
        assert metrics.records == ()
        assert metrics.counter("event:QueryArrivalEvent") == 60
        assert metrics.counter("event:settlement_barrier") > 0
        assert len(metrics.samples) > 0

    def test_partitioned_adaptive_metrics_run_is_byte_identical(self):
        from repro.distcache.runner import DistCacheRunner

        config = TenantExperimentConfig(scheme="econ-cheap",
                                        planning="batched", **self.CONFIG)
        plain = DistCacheRunner(
            2, compare_baseline=False,
            placement="adaptive").run_cells([config])
        metrics = metrics_recorder()
        observed = DistCacheRunner(
            2, compare_baseline=False,
            placement="adaptive").run_cells([config], metrics)
        assert _rendered(observed[0].cell) == _rendered(plain[0].cell)
        assert observed[0].checkpoints == plain[0].checkpoints
        assert observed[0].handoffs == plain[0].handoffs
        # Per-partition samples plus the runner's directory samples.
        sources = {s["source"] for s in metrics.samples}
        assert sources == {"econ-cheap/partition0", "econ-cheap/partition1",
                           "econ-cheap"}
        partition_samples = [s for s in metrics.samples
                             if s["source"] == "econ-cheap/partition0"]
        assert all("remote_surcharge_dollars" in s
                   for s in partition_samples)
        runner_samples = [s for s in metrics.samples
                          if s["source"] == "econ-cheap"]
        assert all("directory_entries" in s for s in runner_samples)

    def test_batched_planning_metrics_run_is_byte_identical(self):
        config = TenantExperimentConfig(scheme="econ-cheap",
                                        planning="batched", **self.CONFIG)
        plain = run_tenant_cell(config)
        metrics = metrics_recorder()
        observed = run_tenant_cell(config, recorder=metrics)
        assert _rendered(observed) == _rendered(plain)
        assert metrics.counter("batch:windows") > 0
        occupied = [s for s in metrics.samples if "batch_occupancy" in s]
        assert occupied, "batched planning should sample window occupancy"

    def test_shock_grammar_metrics_run_is_byte_identical(self):
        from repro.workload.grammar import default_shock_grammar

        grammar = default_shock_grammar()
        config = TenantExperimentConfig(
            scheme="econ-cheap", shocks=grammar.shocks,
            tenant_tiers=grammar.tiers, grammar=grammar, **self.CONFIG)
        plain = run_tenant_cell(config)
        metrics = metrics_recorder()
        observed = run_tenant_cell(config, recorder=metrics)
        assert _rendered(observed) == _rendered(plain)
