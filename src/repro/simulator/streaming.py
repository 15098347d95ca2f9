"""The kernel-side arrival source: every query and lifecycle event enters here.

Every run reads its arrivals as a stream. A materialised workload is just
a finite one (:func:`arrival_stream`), and a million-tenant population is
a lazy :class:`~repro.workload.population.PopulationStream`; either way
the kernel holds only a small *lookahead window* of it:

:class:`StreamingArrivalSource` wraps a time-ordered iterator of queries
and lifecycle markers, primes the first ``lookahead`` events, and
registers itself as one more handler on exactly the event types it
emits. Every time one of its own events dispatches it tops the window
back up, so the kernel's frontier always holds the next stream items until
the stream is exhausted — the queue can never starve while input remains.

Dispatch order is the order of scheduling everything up front:

* the stream yields items in non-decreasing time order and the source
  schedules them in stream order, so same-``(time, priority)`` ties keep
  their stream order;
* cross-kind ties are sequenced by the event priority ranks
  (tenant arrival 4 < tenant churn 6 < settlement 10 < query 30), which
  don't care when an event entered the queue.

The source never mutates simulation state — it only converts stream items
into scheduled events — so it composes with observers and the purity
contracts unchanged.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple, Union

from repro.errors import SimulationError
from repro.simulator.events import (
    Event,
    QueryArrivalEvent,
    TenantArrivalEvent,
    TenantChurnEvent,
)
from repro.simulator.kernel import SimulationKernel
from repro.workload.population import TenantLifecycleMarker
from repro.workload.query import Query

#: How many stream items the source keeps scheduled ahead of the kernel's
#: clock. Big enough to amortise the per-refill overhead, small enough
#: that the kernel heap stays O(1) in the workload size.
DEFAULT_LOOKAHEAD = 64

Arrival = Union[Query, TenantLifecycleMarker]


#: The kernel event each lifecycle marker kind becomes.
_MARKER_EVENTS = {"arrival": TenantArrivalEvent, "churn": TenantChurnEvent}


def dispatch_key(item: Arrival) -> Tuple[float, int]:
    """``(time, event priority)`` of the kernel event an item becomes."""
    if isinstance(item, TenantLifecycleMarker):
        return item.time_s, _MARKER_EVENTS[item.kind].priority
    return item.arrival_time, QueryArrivalEvent.priority


def arrival_stream(queries: Sequence[Query],
                   tenant_lifecycle: Sequence[TenantLifecycleMarker] = ()
                   ) -> List[Arrival]:
    """A materialised workload as the time-ordered stream the source reads.

    A stable sort on ``(time, event priority)``: exactly the order the
    kernel would dispatch these events in had they all been queued up
    front, so the lookahead window never splits a same-instant tie across
    kinds and same-kind ties keep their list order.
    """
    return sorted([*queries, *tenant_lifecycle], key=dispatch_key)


class StreamingArrivalSource:
    """Feeds a time-ordered query/marker stream into the kernel lazily.

    Args:
        stream: an iterable yielding :class:`~repro.workload.query.Query`
            and :class:`~repro.workload.population.TenantLifecycleMarker`
            objects in non-decreasing time order.
        lookahead: number of stream items kept scheduled ahead.
    """

    def __init__(self, stream: Iterable[Arrival],
                 lookahead: int = DEFAULT_LOOKAHEAD) -> None:
        if lookahead <= 0:
            raise SimulationError("lookahead must be positive")
        self._iterator: Iterator = iter(stream)
        self._lookahead = lookahead
        self._in_flight = 0
        self._exhausted = False
        self._primed = False
        self.events_emitted = 0

    # -- wiring ----------------------------------------------------------------

    def register(self, kernel: SimulationKernel) -> None:
        """Subscribe to the event types this source emits (for refills)."""
        kernel.register(QueryArrivalEvent, self)
        kernel.register(TenantArrivalEvent, self)
        kernel.register(TenantChurnEvent, self)

    def prime(self, kernel: SimulationKernel) -> None:
        """Schedule the first lookahead window; call once before ``run()``."""
        if self._primed:
            raise SimulationError("a StreamingArrivalSource primes only once")
        self._primed = True
        self._refill(kernel)

    # -- kernel handler --------------------------------------------------------

    def __call__(self, event: Event, kernel: SimulationKernel) -> None:
        """One of our events dispatched: top the window back up."""
        if self._in_flight > 0:
            self._in_flight -= 1
        if not self._exhausted:
            self._refill(kernel)

    # -- internals -------------------------------------------------------------

    def _refill(self, kernel: SimulationKernel) -> None:
        while self._in_flight < self._lookahead:
            item = next(self._iterator, None)
            if item is None:
                # Drop the spent iterator: a tee branch would otherwise
                # keep its last buffered items alive for the whole run.
                self._exhausted = True
                self._iterator = iter(())
                return
            kernel.schedule(self._event_for(item))
            self._in_flight += 1
            self.events_emitted += 1

    @staticmethod
    def _event_for(item: Arrival) -> Event:
        if isinstance(item, TenantLifecycleMarker):
            return _MARKER_EVENTS[item.kind](time_s=item.time_s,
                                             tenants=item.tenants)
        return QueryArrivalEvent(time_s=item.arrival_time, query=item)
