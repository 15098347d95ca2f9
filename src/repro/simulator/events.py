"""The event hierarchy of the simulation kernel.

Every occurrence the kernel can react to is an :class:`Event` subclass:
query arrivals, periodic maintenance settlements, scheduled
structure-failure checks, and workload phase changes. The queue orders
events by time; **simultaneous events dispatch in a documented, stable
order** so that runs are reproducible regardless of scheduling order:

1. :class:`WorkloadPhaseChangeEvent` (priority 0) — a phase boundary
   applies before anything else that happens at the same instant.
2. :class:`TenantArrivalEvent` (priority 4) and
   :class:`TenantChurnEvent` (priority 6) — the tenant population is
   updated before money moves at the same instant, and an arrival that
   coincides with a churn (a replacement joining as its predecessor
   leaves) activates first.
3. :class:`MaintenanceSettlementEvent` (priority 10) — storage/uptime is
   settled up to the instant *before* simultaneous queries can change
   what is built.
4. Market-shock events — :class:`StructureInvalidationEvent`
   (priority 12), :class:`ProviderPriceShockEvent` (priority 14) and
   :class:`TenantBudgetSqueezeEvent` (priority 16) — dispatch *after*
   the settlement at the same instant (maintenance accrued before the
   shock settles at pre-shock rates) but *before* failure checks and
   queries, so a simultaneous arrival already sees the shocked market.
5. :class:`StructureFailureCheckEvent` (priority 20) — failed structures
   are released before a simultaneous arrival could be served by them.
6. :class:`QueryArrivalEvent` (priority 30) — queries run last.

Unclassified :class:`Event` subclasses default to priority 40 and
dispatch after the built-ins. Events with equal time and equal priority
dispatch in FIFO (insertion) order.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import ClassVar, List, Optional, Tuple

from repro.errors import SimulationError
from repro.workload.population import Cohort
from repro.workload.query import Query


@dataclass(frozen=True)
class Event:
    """Base event: something that happens at a simulated instant.

    ``priority`` is a class-level dispatch rank, not a field: lower ranks
    dispatch first among events scheduled for the same instant (see the
    module docstring for the documented order).
    """

    time_s: float

    priority: ClassVar[int] = 40

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise SimulationError(f"event time must be non-negative, got {self.time_s}")


@dataclass(frozen=True)
class WorkloadPhaseChangeEvent(Event):
    """The workload entered a new phase (burst start, diurnal swing, drift).

    Emitted by the scenario layer (:mod:`repro.workload.scenarios`);
    handlers may react by re-tuning, logging, or simply counting.
    """

    priority: ClassVar[int] = 0

    phase_index: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.phase_index < 0:
            raise SimulationError(
                f"phase_index must be non-negative, got {self.phase_index}"
            )


@dataclass(frozen=True)
class TenantArrivalEvent(Event):
    """A cohort of tenants (user accounts) joins the population.

    Emitted by the population layer (:mod:`repro.workload.population`):
    one event for the initial population and one per churn wave.
    ``tenants`` holds the cohort's population indices; they are minted in
    index order, so it is a non-empty step-1 ``range``. Schemes with a
    :class:`~repro.economy.tenancy.TenantRegistry` activate the cohort,
    single-tenant schemes just count its tenants.
    """

    priority: ClassVar[int] = 4

    tenants: range = range(0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if (not isinstance(self.tenants, range) or self.tenants.step != 1
                or not self.tenants):
            raise SimulationError(
                "TenantArrivalEvent requires a non-empty step-1 range of "
                f"tenant indices, got {self.tenants!r}"
            )


@dataclass(frozen=True)
class TenantChurnEvent(Event):
    """A cohort of tenants leaves the population; wallets and history persist.

    ``tenants`` is a non-empty :data:`~repro.workload.population.Cohort`
    of population indices. Dispatches after any same-instant
    :class:`TenantArrivalEvent` so that replacement tenants are active
    before their predecessors are deactivated.
    """

    priority: ClassVar[int] = 6

    tenants: Cohort = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if not isinstance(self.tenants, (range, tuple)) or not self.tenants:
            raise SimulationError(
                "TenantChurnEvent requires a non-empty cohort of tenant "
                "indices"
            )


@dataclass(frozen=True)
class MaintenanceSettlementEvent(Event):
    """Charge storage/uptime maintenance accrued up to this instant.

    Attributes:
        period_s: when set, a :class:`~repro.simulator.handlers.PeriodicRescheduler`
            re-schedules the event every ``period_s`` seconds.
        final: marks the trailing settlement that closes a run.
    """

    priority: ClassVar[int] = 10

    period_s: Optional[float] = None
    final: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.period_s is not None and self.period_s <= 0:
            raise SimulationError(
                f"period_s must be positive, got {self.period_s}"
            )


@dataclass(frozen=True)
class StructureInvalidationEvent(Event):
    """A fault destroying cached structures mid-run.

    Models data updates, node loss, or operator intervention: every
    cached structure whose key contains ``predicate`` (empty string
    matches everything) is evicted and must be *re-earned* through the
    normal admission path. Invalidation moves no money — unrecovered
    build cost and unbilled maintenance surface as eviction-loss
    metrics, never as account transfers — so credit conservation is
    untouched by construction.
    """

    priority: ClassVar[int] = 12

    predicate: str = ""
    label: str = ""


@dataclass(frozen=True)
class ProviderPriceShockEvent(Event):
    """The provider reprices storage/build by ``factor`` from this instant.

    A shock window is a *pair* of events: an onset with ``factor != 1``
    and a relief event with ``factor == 1.0`` at the window's end, so the
    piecewise-exact maintenance integral (settled at every event) never
    spans a rate change. Tenants still pay catalog prices — the shock
    scales what the *provider* pays to build and maintain, which is what
    squeezes marginal structures out of profitability.
    """

    priority: ClassVar[int] = 14

    factor: float = 1.0
    label: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.factor <= 0:
            raise SimulationError(
                f"price shock factor must be positive, got {self.factor}"
            )


@dataclass(frozen=True)
class TenantBudgetSqueezeEvent(Event):
    """Every tenant's willingness-to-pay scales by ``factor``.

    Like :class:`ProviderPriceShockEvent`, squeezes are windows expressed
    as an onset/relief event pair (relief carries ``factor == 1.0``).
    Budgets scale at offer time, so charges keep mirroring into tenant
    wallets and conservation stays exact.
    """

    priority: ClassVar[int] = 16

    factor: float = 1.0
    label: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.factor <= 0:
            raise SimulationError(
                f"budget squeeze factor must be positive, got {self.factor}"
            )


@dataclass(frozen=True)
class StructureFailureCheckEvent(Event):
    """Scheduled check releasing structures that failed by idleness.

    Complements the per-query check inside the economy: with long
    inter-arrival gaps a scheduled check can stop maintenance accrual on a
    dead structure *between* arrivals.
    """

    priority: ClassVar[int] = 20

    period_s: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.period_s is not None and self.period_s <= 0:
            raise SimulationError(
                f"period_s must be positive, got {self.period_s}"
            )


@dataclass(frozen=True)
class QueryArrivalEvent(Event):
    """A user query arriving at the coordinator."""

    priority: ClassVar[int] = 30

    query: Query = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.query is None:
            raise SimulationError("QueryArrivalEvent requires a query")


class EventQueue:
    """A time-ordered event queue with (priority, FIFO) tie-breaking.

    Events pop in ascending ``(time_s, priority, insertion order)`` — the
    stable order the module docstring documents.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def empty(self) -> bool:
        """Whether any events remain."""
        return not self._heap

    def push(self, event: Event) -> None:
        """Schedule an event."""
        heapq.heappush(
            self._heap,
            (event.time_s, event.priority, next(self._counter), event),
        )

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise SimulationError("pop from an empty event queue")
        _, _, _, event = heapq.heappop(self._heap)
        return event

    def peek_time(self) -> Optional[float]:
        """Time of the earliest event, or ``None`` when empty."""
        if not self._heap:
            return None
        return self._heap[0][0]
