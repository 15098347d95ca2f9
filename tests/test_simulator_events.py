"""Unit tests for the event queue."""

import pytest

from repro.errors import SimulationError
from repro.simulator.events import Event, EventQueue, QueryArrivalEvent
from repro.workload.templates import template_by_name


def make_arrival(time_s, query_id=0):
    query = template_by_name("q6_forecast_revenue").instantiate(query_id, time_s)
    return QueryArrivalEvent(time_s=time_s, query=query)


class TestEvents:
    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            Event(time_s=-1.0)

    def test_arrival_requires_a_query(self):
        with pytest.raises(SimulationError):
            QueryArrivalEvent(time_s=0.0)


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        queue.push(make_arrival(5.0, 1))
        queue.push(make_arrival(1.0, 2))
        queue.push(make_arrival(3.0, 3))
        times = [queue.pop().time_s for _ in range(3)]
        assert times == [1.0, 3.0, 5.0]

    def test_fifo_tie_breaking(self):
        queue = EventQueue()
        first = make_arrival(2.0, 1)
        second = make_arrival(2.0, 2)
        queue.push(first)
        queue.push(second)
        assert queue.pop() is first
        assert queue.pop() is second

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.push(make_arrival(9.0))
        assert queue.peek_time() == 9.0

    def test_pop_from_empty_queue_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()


class TestTenantEvents:
    def test_tenant_events_require_an_id(self):
        from repro.simulator.events import TenantArrivalEvent, TenantChurnEvent

        with pytest.raises(SimulationError):
            TenantArrivalEvent(time_s=0.0)
        with pytest.raises(SimulationError):
            TenantChurnEvent(time_s=0.0)
        # A cohort is a non-empty range or tuple of population indices.
        for empty in (range(0), ()):
            with pytest.raises(SimulationError):
                TenantArrivalEvent(time_s=0.0, tenants=empty)
        with pytest.raises(SimulationError):
            TenantChurnEvent(time_s=0.0, tenants=[0])
        # Arrivals are minted in index order: only a step-1 range.
        for scattered in ((0, 2), range(0, 4, 2)):
            with pytest.raises(SimulationError):
                TenantArrivalEvent(time_s=0.0, tenants=scattered)
        TenantChurnEvent(time_s=0.0, tenants=(0, 2))

    def test_same_instant_order_population_before_money_before_queries(self):
        from repro.simulator.events import (
            MaintenanceSettlementEvent,
            TenantArrivalEvent,
            TenantChurnEvent,
        )

        queue = EventQueue()
        queue.push(make_arrival(1.0))
        queue.push(MaintenanceSettlementEvent(time_s=1.0))
        queue.push(TenantChurnEvent(time_s=1.0, tenants=(0,)))
        queue.push(TenantArrivalEvent(time_s=1.0, tenants=range(1, 2)))
        kinds = [type(queue.pop()).__name__ for _ in range(4)]
        assert kinds == [
            "TenantArrivalEvent",       # replacement joins first
            "TenantChurnEvent",         # then its predecessor leaves
            "MaintenanceSettlementEvent",
            "QueryArrivalEvent",
        ]
