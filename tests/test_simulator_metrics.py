"""Unit tests for metric collection."""

import pytest

from repro.errors import SimulationError
from repro.policies.base import SchemeStep
from repro.simulator.metrics import MetricsCollector


def make_step(query_id=0, response=5.0, cached=True, cpu=0.01, io=0.05, net=0.0,
              build=0.0, charge=0.2, profit=0.05, builds=0, evictions=0):
    return SchemeStep(
        query_id=query_id,
        template_name="q6_forecast_revenue",
        arrival_time_s=float(query_id),
        response_time_s=response,
        served_in_cache=cached,
        plan_label="cache_column_scan" if cached else "backend",
        execution_cpu_dollars=cpu,
        execution_io_dollars=io,
        execution_network_dollars=net,
        build_dollars=build,
        network_bytes=0.0 if cached else 1e6,
        charge=charge,
        profit=profit,
        builds=builds,
        evictions=evictions,
        eviction_losses=0.0,
    )


class TestMetricsCollector:
    def test_summary_aggregates_steps(self):
        collector = MetricsCollector("econ-cheap")
        collector.record_step(make_step(0, response=4.0))
        collector.record_step(make_step(1, response=8.0, cached=False, net=0.1))
        collector.record_maintenance(0.5, 10.0)
        summary = collector.summary()
        assert summary.scheme_name == "econ-cheap"
        assert summary.query_count == 2
        assert summary.mean_response_time_s == pytest.approx(6.0)
        assert summary.cache_hit_rate == pytest.approx(0.5)
        assert summary.maintenance_dollars == pytest.approx(0.5)
        assert summary.duration_s == pytest.approx(10.0)
        assert summary.operating_cost == pytest.approx(
            2 * 0.01 + 2 * 0.05 + 0.1 + 0.5
        )
        assert summary.execution_dollars == pytest.approx(2 * 0.01 + 2 * 0.05 + 0.1)

    def test_percentiles_and_median(self):
        collector = MetricsCollector("bypass")
        for index, response in enumerate([1.0, 2.0, 3.0, 4.0, 100.0]):
            collector.record_step(make_step(index, response=response))
        summary = collector.summary()
        assert summary.median_response_time_s == pytest.approx(3.0)
        assert summary.p95_response_time_s > summary.median_response_time_s

    def test_summary_requires_steps(self):
        with pytest.raises(SimulationError):
            MetricsCollector("bypass").summary()

    def test_rejects_negative_maintenance(self):
        with pytest.raises(SimulationError):
            MetricsCollector("bypass").record_maintenance(-0.1, 1.0)

    def test_rejects_empty_scheme_name(self):
        with pytest.raises(SimulationError):
            MetricsCollector("")

