"""Tests for the simulation loop."""

import pytest

from repro.errors import SimulationError
from repro.simulator.simulation import CloudSimulation, SimulationConfig, run_scheme
from repro.workload.generator import WorkloadGenerator, WorkloadSpec


@pytest.fixture
def workload():
    return WorkloadGenerator(WorkloadSpec(query_count=60, interarrival_s=2.0,
                                          seed=13)).generate()


class TestSimulationConfig:
    @pytest.mark.parametrize("field", ["settlement_period_s",
                                       "failure_check_period_s"])
    @pytest.mark.parametrize("value", [float("nan"), 0.0])
    def test_periods_must_be_positive(self, field, value):
        with pytest.raises(SimulationError):
            SimulationConfig(**{field: value})


class TestCloudSimulation:
    def test_processes_every_query(self, system, workload):
        result = CloudSimulation(system.scheme("bypass")).run(workload)
        assert result.summary.query_count == len(workload)
        assert len(result.steps) == len(workload)
        assert result.scheme_name == "bypass"

    def test_steps_are_in_arrival_order(self, system, workload):
        result = CloudSimulation(system.scheme("bypass")).run(workload)
        ids = [step.query_id for step in result.steps]
        assert ids == sorted(ids)

    def test_empty_workload_rejected(self, system):
        with pytest.raises(SimulationError):
            CloudSimulation(system.scheme("bypass")).run([])

    def test_maintenance_scales_with_the_interarrival_time(self, system):
        """The same queries cost more to store at 60 s spacing than at 1 s."""
        spec = WorkloadSpec(query_count=80, interarrival_s=1.0, seed=3)
        fast = WorkloadGenerator(spec).generate()
        slow = WorkloadGenerator(spec.with_interarrival(60.0)).generate()
        fast_result = run_scheme(system.scheme("econ-cheap"), fast)
        slow_result = run_scheme(system.scheme("econ-cheap"), slow)
        assert (slow_result.summary.maintenance_dollars
                >= fast_result.summary.maintenance_dollars)

    def test_duration_covers_the_workload_span(self, system, workload):
        result = CloudSimulation(system.scheme("bypass")).run(workload)
        span = workload[-1].arrival_time - workload[0].arrival_time
        assert result.summary.duration_s >= span

    def test_result_helpers(self, system, workload):
        result = CloudSimulation(system.scheme("bypass")).run(workload)
        assert result.operating_cost == result.summary.operating_cost
        assert result.mean_response_time_s == result.summary.mean_response_time_s


class TestTrailingSettlement:
    def test_fixed_arrivals_cover_exactly_count_times_interval(self, system):
        """With fixed arrivals the trailing charge completes the duration to
        ``count * interarrival`` exactly."""
        spec = WorkloadSpec(query_count=50, interarrival_s=4.0, seed=1)
        workload = WorkloadGenerator(spec).generate()
        result = CloudSimulation(system.scheme("bypass")).run(workload)
        assert result.summary.duration_s == pytest.approx(50 * 4.0)

    def test_simultaneous_final_arrivals_do_not_charge_a_stale_gap(self, system):
        """Regression: the old heuristic fell back to the previous positive
        gap when the final arrivals were simultaneous, charging a stale
        interval; the settlement event charges the empirical mean gap, so
        the duration is exactly ``count * mean interarrival``."""
        from repro.workload.arrival import TraceArrival

        trace = TraceArrival([0.0, 5.0, 10.0, 10.0])
        spec = WorkloadSpec(query_count=4, interarrival_s=5.0, seed=2)
        workload = WorkloadGenerator(spec, arrival_process=trace).generate()
        result = CloudSimulation(system.scheme("bypass")).run(workload)
        # span = 10 s over 3 gaps -> trailing charge 10/3 s, total 40/3 s
        # (the old code charged 5 s for a 15 s total).
        assert result.summary.duration_s == pytest.approx(4 * (10.0 / 3.0))

    def test_single_query_has_no_trailing_charge(self, system):
        spec = WorkloadSpec(query_count=1, interarrival_s=5.0, seed=2)
        workload = WorkloadGenerator(spec).generate()
        result = CloudSimulation(system.scheme("bypass")).run(workload)
        assert result.summary.duration_s == 0.0
        assert result.summary.maintenance_dollars == 0.0


class TestRunSchemeHelper:
    def test_run_scheme_wraps_the_simulation(self, system, workload):
        result = run_scheme(system.scheme("econ-col"), workload)
        assert result.summary.query_count == len(workload)
        assert result.summary == CloudSimulation(
            system.scheme("econ-col")).run(workload).summary
