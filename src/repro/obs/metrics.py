"""Metrics timeseries: per-epoch samples of the run's hot counters.

Where the trace artifact records *everything that happened* (spans,
events, cumulative counters), the metrics artifact records *how the hot
metrics evolved over simulated time*: at every settlement barrier a
sampler snapshots the counter deltas since the previous barrier plus a
handful of gauges read off the live components (provider credit, wallet
credit flow, cache bytes, remote surcharge dollars), producing one
``sample`` record per ``(source, epoch)``.

Both artifacts come from the one :class:`~repro.obs.trace.TraceRecorder`:
its counter store feeds the samples' deltas and both artifacts' counter
lines, its event log the trace, its samples the timeseries. This module
holds the sampling side: the read-only :class:`MetricsSampler` kernel
observer, and :func:`attach_observability`, the one helper every
execution path attaches a recorder with. Samplers honour the same
**zero-perturbation contract** as the rest of the recorder (see
``docs/observability.md``): they never touch RNG state or account
arithmetic.

Example:
    >>> from repro.obs.trace import TraceRecorder
    >>> recorder = TraceRecorder(events=False, samples=True)
    >>> recorder.event("batch_window", time_s=10.0, size=4)
    >>> recorder.sample(time_s=60.0, provider_credit=12.5)
    >>> sample = recorder.samples[0]
    >>> sample["batch_occupancy"], sample["provider_credit"], recorder.records
    (4.0, 12.5, ())
"""

from __future__ import annotations

from typing import Dict

from repro.simulator.events import MaintenanceSettlementEvent, QueryArrivalEvent
from repro.obs.trace import TraceRecorder, kernel_observer_pair


class MetricsSampler:
    """Read-only settlement observer that drives
    :meth:`~repro.obs.trace.TraceRecorder.sample`.

    Registered for :class:`~repro.simulator.events.MaintenanceSettlementEvent`
    through the standard ``run(observers=...)`` hook (observers run
    *after* the built-in handlers, so it snapshots post-settlement
    state). At each barrier it reads gauges off the scheme's live
    components — all plain attribute/property reads; nothing is mutated
    and no RNG is touched, which is what keeps metrics-enabled runs
    byte-identical to disabled ones.

    The process's peak RSS is not sampled: the OS high-water mark is not
    deterministic across runs, so it goes into the run manifest instead
    (:func:`~repro.obs.manifest.peak_rss_bytes`), keeping metrics
    emission bitwise reproducible.

    Args:
        recorder: the recorder to sample into.
        scheme: the scheme whose components the gauges read.
    """

    def __init__(self, recorder: TraceRecorder, scheme) -> None:
        self._recorder = recorder
        self._engine = getattr(scheme, "engine", None)
        self._cache = scheme.cache

    def __call__(self, event: MaintenanceSettlementEvent, kernel) -> None:
        gauges: Dict[str, object] = {
            "queries_dispatched": kernel.dispatch_count(QueryArrivalEvent),
            "cache_entries": len(self._cache.entries),
            "disk_used_bytes": self._cache.disk_used_bytes,
        }
        engine = self._engine
        if engine is not None:
            account = engine.account
            gauges["provider_credit"] = account.credit
            gauges["query_payments"] = account.category_total(
                account.CATEGORY_QUERY_PAYMENT)
            registry = engine.tenants
            if registry is not None:
                gauges["wallet_credit"] = registry.total_credit()
                gauges["wallet_charged"] = registry.total_charged()
                gauges["live_tenants"] = registry.live_tenant_count()
                gauges["materialized_tenants"] = (
                    registry.materialized_tenant_count())
        self._recorder.sample(time_s=event.time_s, final=event.final,
                              **gauges)


def attach_observability(scheme, recorder: TraceRecorder) -> list:
    """Attach a recorder to a scheme; return the kernel observers to run.

    The one helper every execution path (plain cells, scenario runs,
    shocked cells, grid cells) uses, so the recorder attaches
    identically everywhere: it lands on the engine (which
    propagates to cache and batch scheduler) or, for the economy-less
    bypass baseline, directly on the cache; a kernel dispatch observer
    feeds it; and a recorder that takes samples also gets the settlement
    sampler, registered after the kernel observer so each sample's deltas
    include its own barrier's dispatch.
    """
    engine = getattr(scheme, "engine", None)
    if engine is not None:
        engine.attach_trace(recorder)
    else:
        scheme.cache.attach_trace(recorder)
    observers = [kernel_observer_pair(recorder)]
    if recorder.takes_samples:
        observers.append((MaintenanceSettlementEvent,
                          MetricsSampler(recorder, scheme)))
    return observers
