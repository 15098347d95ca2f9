"""Tests for the event kernel: dispatch order, handlers, multi-tenant runs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simulator.events import (
    Event,
    MaintenanceSettlementEvent,
    QueryArrivalEvent,
    StructureFailureCheckEvent,
    WorkloadPhaseChangeEvent,
)
from repro.simulator.handlers import PeriodicRescheduler, SchemeTenant
from repro.simulator.kernel import SimulationKernel
from repro.simulator.metrics import MetricsCollector
from repro.simulator.simulation import CloudSimulation, SimulationConfig
from repro.workload.generator import WorkloadGenerator, WorkloadSpec
from repro.workload.templates import template_by_name


def make_arrival(time_s, query_id=0):
    query = template_by_name("q6_forecast_revenue").instantiate(query_id, time_s)
    return QueryArrivalEvent(time_s=time_s, query=query)


#: Constructors of every built-in event type, in documented priority order.
EVENT_MAKERS = (
    lambda t: WorkloadPhaseChangeEvent(time_s=t),
    lambda t: MaintenanceSettlementEvent(time_s=t),
    lambda t: StructureFailureCheckEvent(time_s=t),
    lambda t: make_arrival(t),
)


class TestKernelDispatch:
    def test_dispatches_in_time_order(self):
        kernel = SimulationKernel()
        seen = []
        kernel.register(Event, lambda event, k: seen.append(event.time_s))
        for time_s in (5.0, 1.0, 3.0):
            kernel.schedule(MaintenanceSettlementEvent(time_s=time_s))
        assert kernel.run() == 3
        assert seen == [1.0, 3.0, 5.0]

    def test_simultaneous_events_follow_the_documented_priority(self):
        kernel = SimulationKernel()
        seen = []
        kernel.register(Event, lambda event, k: seen.append(type(event)))
        # Schedule in reverse of the documented order; dispatch must re-sort.
        kernel.schedule(make_arrival(2.0))
        kernel.schedule(StructureFailureCheckEvent(time_s=2.0))
        kernel.schedule(MaintenanceSettlementEvent(time_s=2.0))
        kernel.schedule(WorkloadPhaseChangeEvent(time_s=2.0))
        kernel.run()
        assert seen == [WorkloadPhaseChangeEvent, MaintenanceSettlementEvent,
                        StructureFailureCheckEvent, QueryArrivalEvent]

    def test_unhandled_event_raises(self):
        kernel = SimulationKernel()
        kernel.register(QueryArrivalEvent, lambda event, k: None)
        kernel.schedule(MaintenanceSettlementEvent(time_s=1.0))
        with pytest.raises(SimulationError):
            kernel.run()

    def test_handlers_run_in_registration_order(self):
        kernel = SimulationKernel()
        order = []
        kernel.register(Event, lambda event, k: order.append("first"))
        kernel.register(MaintenanceSettlementEvent,
                        lambda event, k: order.append("second"))
        kernel.schedule(MaintenanceSettlementEvent(time_s=0.0))
        kernel.run()
        assert order == ["first", "second"]

    def test_scheduling_in_the_past_is_rejected(self):
        kernel = SimulationKernel(start_time_s=10.0)
        with pytest.raises(SimulationError):
            kernel.schedule(MaintenanceSettlementEvent(time_s=5.0))

    def test_handlers_can_schedule_follow_ups(self):
        kernel = SimulationKernel()
        seen = []

        def chain(event, k):
            seen.append(event.time_s)
            if event.time_s < 3.0:
                k.schedule(MaintenanceSettlementEvent(time_s=event.time_s + 1.0))

        kernel.register(MaintenanceSettlementEvent, chain)
        kernel.schedule(MaintenanceSettlementEvent(time_s=0.0))
        assert kernel.run() == 4
        assert seen == [0.0, 1.0, 2.0, 3.0]

    def test_run_until_leaves_later_events_queued(self):
        kernel = SimulationKernel()
        kernel.register(Event, lambda event, k: None)
        kernel.schedule(MaintenanceSettlementEvent(time_s=1.0))
        kernel.schedule(MaintenanceSettlementEvent(time_s=9.0))
        assert kernel.run(until_s=5.0) == 1
        assert kernel.run() == 1    # the later event was still queued

    def test_dispatch_counts_per_type(self):
        kernel = SimulationKernel()
        kernel.register(Event, lambda event, k: None)
        kernel.schedule(MaintenanceSettlementEvent(time_s=0.0))
        kernel.schedule(WorkloadPhaseChangeEvent(time_s=0.0))
        kernel.run()
        assert kernel.dispatch_count() == 2
        assert kernel.dispatch_count(MaintenanceSettlementEvent) == 1
        assert kernel.dispatch_count(QueryArrivalEvent) == 0

    def test_dispatch_follows_registrations(self):
        """Subclass events match their base's handlers, in registration
        order, and a registration between two runs (or after an unhandled
        event) takes effect on the next dispatch."""

        class AuditSettlement(MaintenanceSettlementEvent):
            pass

        kernel = SimulationKernel()
        seen = []
        kernel.register(MaintenanceSettlementEvent,
                        lambda event, k: seen.append(("base", event.time_s)))
        kernel.schedule(AuditSettlement(time_s=1.0))
        kernel.schedule(MaintenanceSettlementEvent(time_s=2.0))
        kernel.run()
        assert seen == [("base", 1.0), ("base", 2.0)]

        kernel.register(AuditSettlement,
                        lambda event, k: seen.append(("audit", event.time_s)))
        kernel.schedule(AuditSettlement(time_s=3.0))
        kernel.schedule(MaintenanceSettlementEvent(time_s=4.0))
        kernel.run()
        assert seen[2:] == [("base", 3.0), ("audit", 3.0), ("base", 4.0)]

        kernel.schedule(WorkloadPhaseChangeEvent(time_s=5.0))
        with pytest.raises(SimulationError, match="WorkloadPhaseChangeEvent"):
            kernel.run()
        kernel.register(Event, lambda event, k: seen.append(("any", event.time_s)))
        kernel.schedule(WorkloadPhaseChangeEvent(time_s=6.0))
        kernel.schedule(AuditSettlement(time_s=7.0))
        kernel.run()
        assert seen[5:] == [("any", 6.0), ("base", 7.0), ("audit", 7.0),
                            ("any", 7.0)]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from([0.0, 1.0, 2.0]), st.integers(0, 3)),
        min_size=1, max_size=24,
    ))
    def test_any_interleaving_dispatches_in_the_stable_order(self, plan):
        """Property: whatever order simultaneous events are scheduled in,
        dispatch follows (time, documented priority, insertion order)."""
        events = [EVENT_MAKERS[maker_index](time_s)
                  for time_s, maker_index in plan]
        kernel = SimulationKernel()
        dispatched = []
        kernel.register(Event, lambda event, k: dispatched.append(event))
        for event in events:
            kernel.schedule(event)
        kernel.run()
        # sorted() is stable, so equal (time, priority) keeps insertion order.
        expected = sorted(events, key=lambda e: (e.time_s, e.priority))
        assert dispatched == expected


class TestPeriodicRescheduler:
    def test_reschedules_until_the_horizon(self):
        kernel = SimulationKernel()
        times = []
        kernel.register(MaintenanceSettlementEvent,
                        lambda event, k: times.append(event.time_s))
        kernel.register(MaintenanceSettlementEvent, PeriodicRescheduler(horizon_s=10.0))
        kernel.schedule(MaintenanceSettlementEvent(time_s=2.0, period_s=3.0))
        kernel.run()
        assert times == [2.0, 5.0, 8.0]

    def test_ignores_one_shot_events(self):
        kernel = SimulationKernel()
        kernel.register(MaintenanceSettlementEvent, lambda event, k: None)
        kernel.register(MaintenanceSettlementEvent, PeriodicRescheduler(horizon_s=100.0))
        kernel.schedule(MaintenanceSettlementEvent(time_s=1.0))
        assert kernel.run() == 1


class TestSchemeTenant:
    @pytest.fixture
    def workload(self):
        return WorkloadGenerator(WorkloadSpec(query_count=50, interarrival_s=3.0,
                                              seed=7)).generate()

    def test_periodic_settlement_does_not_change_the_total(self, system, workload):
        """The maintenance rate only changes at arrivals, so settling more
        often redistributes the charges without changing their sum."""
        plain = CloudSimulation(system.scheme("econ-cheap")).run(workload)
        periodic = CloudSimulation(
            system.scheme("econ-cheap"),
            SimulationConfig(settlement_period_s=4.5),
        ).run(workload)
        assert periodic.summary.maintenance_dollars == pytest.approx(
            plain.summary.maintenance_dollars)
        assert periodic.summary.duration_s == pytest.approx(
            plain.summary.duration_s)
        assert periodic.summary.operating_cost == pytest.approx(
            plain.summary.operating_cost)

    def test_period_longer_than_the_run_does_not_extend_it(self, system, workload):
        """Regression: a periodic event past the horizon must not fire, or
        it would inflate the duration beyond count * interarrival."""
        span_plus_trailing = len(workload) * 3.0
        result = CloudSimulation(
            system.scheme("bypass"),
            SimulationConfig(settlement_period_s=10 * span_plus_trailing,
                             failure_check_period_s=10 * span_plus_trailing),
        ).run(workload)
        assert result.summary.duration_s == pytest.approx(span_plus_trailing)

    def test_scheduled_failure_checks_run_through_the_kernel(self, system, workload):
        result = CloudSimulation(
            system.scheme("econ-cheap"),
            SimulationConfig(failure_check_period_s=30.0),
        ).run(workload)
        assert result.summary.query_count == len(workload)
        assert result.summary.operating_cost > 0

    def test_phase_change_events_are_counted(self, system, workload):
        from repro.workload.arrival import PhaseChange

        changes = [PhaseChange(time_s=30.0, phase_index=1, label="drift")]
        result = CloudSimulation(system.scheme("bypass")).run(
            workload, phase_changes=changes)
        assert result.summary.query_count == len(workload)
