"""The simulation driver, assembled on the event kernel.

:class:`CloudSimulation` keeps its original one-scheme API but is now a
thin assembly over :class:`~repro.simulator.kernel.SimulationKernel`:
query arrivals, maintenance settlements, scheduled failure checks and
workload phase changes are all events dispatched to registered handlers
(:mod:`repro.simulator.handlers`) instead of inline special cases.
Between consecutive events the tenant integrates the time-proportional
maintenance cost of everything the scheme keeps built, which is how the
inter-arrival time ends up mattering for the operating cost even though
per-query work is unchanged — exactly the effect Figures 4 and 5 study.

It is assembled by :func:`_run_tenants` over an arrival *stream* (a
list is just a finite one), as are the lazily streamed tenant cells.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.errors import SimulationError
from repro.policies.base import CachingScheme
from repro.simulator.events import (
    MaintenanceSettlementEvent,
    StructureFailureCheckEvent,
    WorkloadPhaseChangeEvent,
)
from repro.simulator.handlers import PeriodicRescheduler, SchemeTenant
from repro.simulator.kernel import SimulationKernel
from repro.simulator.metrics import MetricsCollector
from repro.simulator.results import SimulationResult
from repro.simulator.streaming import (
    Arrival,
    StreamingArrivalSource,
    arrival_stream,
)
from repro.workload.generator import ArrivalEnvelope
from repro.workload.query import Query


@dataclass(frozen=True)
class SimulationConfig:
    """Run-level options.

    Attributes:
        settlement_period_s: when set, a periodic maintenance settlement
            event fires every this many seconds; settlement at event
            boundaries is exact either way (the rate only changes at
            arrivals), so the period only affects accounting granularity.
        failure_check_period_s: when set, a scheduled structure-failure
            check fires every this many seconds, releasing idle-failed
            structures *between* arrivals instead of only at the next
            query. ``None`` (the default) preserves the paper pipeline's
            per-query-only checks.
    """

    settlement_period_s: Optional[float] = None
    failure_check_period_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.settlement_period_s is not None and not self.settlement_period_s > 0:
            raise SimulationError("settlement_period_s must be positive")
        if (self.failure_check_period_s is not None
                and not self.failure_check_period_s > 0):
            raise SimulationError("failure_check_period_s must be positive")


def _run_tenants(scheme: CachingScheme,
                 arrivals: Iterable[Arrival], envelope: ArrivalEnvelope,
                 config: SimulationConfig,
                 phase_changes: Sequence = (),
                 observers: Sequence = (),
                 shock_events: Sequence = ()) -> SimulationResult:
    """The kernel assembly: run ``scheme`` over one arrival stream.

    ``arrivals`` yields queries and tenant lifecycle markers in time order
    — a materialised workload through
    :func:`~repro.simulator.streaming.arrival_stream`, or a lazy
    :class:`~repro.workload.population.PopulationStream` — and reaches the
    kernel through a :class:`StreamingArrivalSource`. ``envelope`` supplies
    the run's extent before any arrival is read; all horizon arithmetic
    uses its floats, the same values the arrivals are stamped with.

    Maintenance is also charged for one trailing interval after the final
    query (the workload's empirical mean gap, ``span / (count - 1)``), so
    the measured duration is ``count * interarrival`` exactly.
    """
    start_s = envelope.start_s
    trailing_s = envelope.trailing_interval_s
    end_s = envelope.last_s + trailing_s

    kernel = SimulationKernel(start_time_s=start_s)
    # A batched planner pulls its own feed of the stream, one window of
    # settlement epochs at a time. A scalar scheme gets none: a tee branch
    # nobody drains would buffer the whole stream.
    if scheme.plans_in_batches:
        arrivals, feed = itertools.tee(arrivals)
        scheme.prime_workload(
            (item for item in feed if isinstance(item, Query)),
            settlement_period_s=config.settlement_period_s,
        )
        del feed
    source = StreamingArrivalSource(arrivals)
    # No local name keeps a branch of the stream: the source and the
    # planner drop theirs once drained, and with them the tee's buffer.
    del arrivals
    collector = MetricsCollector(scheme.name)
    SchemeTenant(scheme, collector, start_time_s=start_s).register(kernel)

    rescheduler = PeriodicRescheduler(horizon_s=end_s)
    kernel.register(MaintenanceSettlementEvent, rescheduler)
    kernel.register(StructureFailureCheckEvent, rescheduler)

    source.register(kernel)

    # Observers register last: registration order is dispatch order, so an
    # observer of a settlement event always sees fully settled state. They
    # must be read-only — the sharding layer's determinism barrier relies
    # on observed runs being bitwise identical to unobserved ones.
    for event_type, handler in observers:
        kernel.register(event_type, handler)

    for change in phase_changes:
        kernel.schedule(WorkloadPhaseChangeEvent(
            time_s=change.time_s,
            phase_index=change.phase_index,
            label=change.label,
        ))
    # Market-shock events (already-instantiated Event objects, e.g. from
    # repro.workload.grammar.compile_shock_events) are scheduled as-is;
    # the compiler clamps them to the arrival span, so none outlives the
    # run horizon.
    kernel.schedule_all(shock_events)
    # Periodic events are clamped to the run horizon: an initial occurrence
    # past end_s would extend the measured duration beyond the documented
    # count * interarrival invariant (the rescheduler caps follow-ups the
    # same way).
    if (config.settlement_period_s is not None
            and start_s + config.settlement_period_s <= end_s):
        kernel.schedule(MaintenanceSettlementEvent(
            time_s=start_s + config.settlement_period_s,
            period_s=config.settlement_period_s,
        ))
    if (config.failure_check_period_s is not None
            and start_s + config.failure_check_period_s <= end_s):
        kernel.schedule(StructureFailureCheckEvent(
            time_s=start_s + config.failure_check_period_s,
            period_s=config.failure_check_period_s,
        ))
    if trailing_s > 0:
        kernel.schedule(MaintenanceSettlementEvent(time_s=end_s, final=True))

    source.prime(kernel)
    kernel.run()

    return SimulationResult(summary=collector.summary(),
                            steps=collector.steps)


class CloudSimulation:
    """Replays a workload against a caching scheme and collects metrics."""

    def __init__(self, scheme: CachingScheme,
                 config: SimulationConfig = SimulationConfig()) -> None:
        self._scheme = scheme
        self._config = config

    @property
    def scheme(self) -> CachingScheme:
        """The scheme under simulation."""
        return self._scheme

    def run(self, queries: Sequence[Query],
            phase_changes: Sequence = (),
            tenant_lifecycle: Sequence = (),
            observers: Sequence = (),
            shock_events: Sequence = ()) -> SimulationResult:
        """Process all queries in arrival order and return the result.

        Args:
            queries: the workload, in arrival order.
            phase_changes: optional workload phase boundaries (see
                :mod:`repro.workload.scenarios`), scheduled as
                :class:`~repro.simulator.events.WorkloadPhaseChangeEvent`.
            tenant_lifecycle: optional tenant join/leave markers (see
                :mod:`repro.workload.population`), merged with the queries
                into one time-ordered arrival stream
                (:func:`~repro.simulator.streaming.arrival_stream`).
            observers: optional ``(event type, handler)`` pairs registered
                on the kernel after all built-in handlers; read-only hooks
                used e.g. by :mod:`repro.sharding` to snapshot state at
                settlement boundaries.
            shock_events: optional market-shock events (see
                :mod:`repro.workload.grammar`) injected into the run —
                invalidations, provider price shocks, tenant budget
                squeezes.
        """
        query_list = list(queries)
        if not query_list:
            raise SimulationError("the workload contains no queries")
        return _run_tenants(
            self._scheme, arrival_stream(query_list, tenant_lifecycle),
            ArrivalEnvelope.of(query_list), self._config,
            phase_changes=phase_changes, observers=observers,
            shock_events=shock_events)


def run_scheme(scheme: CachingScheme,
               queries: Iterable[Query]) -> SimulationResult:
    """Convenience one-call simulation used by examples and benchmarks."""
    return CloudSimulation(scheme).run(list(queries))
