"""Event-driven simulation of the cloud cache.

The simulator is a general event kernel: query arrivals, periodic
maintenance settlements, scheduled structure-failure checks and workload
phase changes are events dispatched to registered handlers along one
shared clock. The stock driver replays a workload against one scheme
(:class:`CloudSimulation`), integrating the time-proportional
costs (disk storage and node uptime) between events and collecting the
metrics Figures 4 and 5 report: total operating cost and average
response time.
"""

from repro.simulator.clock import SimulationClock
from repro.simulator.events import (
    Event,
    EventQueue,
    MaintenanceSettlementEvent,
    QueryArrivalEvent,
    StructureFailureCheckEvent,
    WorkloadPhaseChangeEvent,
)
from repro.simulator.handlers import PeriodicRescheduler, SchemeTenant
from repro.simulator.kernel import SimulationKernel
from repro.simulator.metrics import MetricsCollector, MetricsSummary
from repro.simulator.results import SimulationResult
from repro.simulator.simulation import (
    CloudSimulation,
    SimulationConfig,
    run_scheme,
)

__all__ = [
    "SimulationClock",
    "Event",
    "EventQueue",
    "MaintenanceSettlementEvent",
    "QueryArrivalEvent",
    "StructureFailureCheckEvent",
    "WorkloadPhaseChangeEvent",
    "PeriodicRescheduler",
    "SchemeTenant",
    "SimulationKernel",
    "MetricsCollector",
    "MetricsSummary",
    "SimulationResult",
    "CloudSimulation",
    "SimulationConfig",
    "run_scheme",
]
