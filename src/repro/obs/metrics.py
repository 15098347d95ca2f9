"""Metrics timeseries: per-epoch samples of the run's hot counters.

Where :mod:`repro.obs.trace` records *everything that happened* (spans,
events, cumulative counters), a :class:`MetricsTimeseries` records *how
the hot metrics evolved over simulated time*: at every settlement barrier
a sampler snapshots the counter deltas since the previous barrier plus a
handful of gauges read off the live components (provider credit, wallet
credit flow, cache bytes, remote surcharge dollars), producing one
``sample`` record per ``(source, epoch)``.

The collector honours the same **zero-perturbation contract** as the
trace recorder (see ``docs/observability.md``): it duck-types the
recorder surface (``count`` / ``event`` / ``span``), so the engine,
cache, and batch scheduler feed it through the existing
``attach_trace`` hook behind one attribute check; samplers are read-only
kernel observers that never touch RNG state or account arithmetic; and
per-shard / per-partition collectors are plain picklable data absorbed
at barriers exactly like :class:`~repro.obs.trace.TraceRecorder`.

When both ``--trace`` and ``--metrics`` are requested, the two sinks are
fanned out through a :class:`RecorderTee` (components still hold a
single attribute) and unwrapped again with :func:`trace_part` /
:func:`metrics_part` at absorb time.

Emission is deterministic: :meth:`MetricsTimeseries.jsonl_lines` sorts
samples by ``(time_s, source, epoch)`` and serializes with sorted keys,
so the same run always produces the same bytes.

Example:
    >>> metrics = MetricsTimeseries(source="demo")
    >>> metrics.count("engine:queries", 4)
    >>> metrics.count("engine:cache_hits", 3)
    >>> metrics.sample(time_s=60.0, provider_credit=12.5)
    >>> [record["hit_rate"] for record in metrics.samples]
    [0.75]
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional, Tuple

from repro.simulator.events import MaintenanceSettlementEvent, QueryArrivalEvent
from repro.obs.trace import TraceRecorder, kernel_observer_pair

#: Bumped whenever the metrics JSONL record shape changes incompatibly.
METRICS_SCHEMA_VERSION = 1

#: One stored sample: ``(time_s, epoch, source, payload)``.
MetricsSample = Tuple[float, int, str, Dict[str, object]]


class MetricsTimeseries:
    """Per-epoch counter deltas and gauges, sampled at settlement barriers.

    Duck-types the :class:`~repro.obs.trace.TraceRecorder` surface
    (``count``/``event``/``span``) so it can sit behind the existing
    ``attach_trace`` attach points — but unlike the trace recorder it
    keeps no per-event record list: events are folded straight into
    counters, so memory is bounded by the counter-name and sample
    cardinality, not the query count.

    Args:
        source: label stamped on every sample (``"run"`` for the main
            path, ``"shard3"`` / ``"partition1"`` for per-worker
            collectors merged later).
    """

    def __init__(self, source: str = "run") -> None:
        self.source = source
        self._counters: Dict[str, Dict[str, int]] = {}
        self._samples: List[MetricsSample] = []
        # Per-source snapshot of the counters at the last sample, and the
        # per-source epoch cursor (epochs are 1-based like the settlement
        # barriers they mirror).
        self._marks: Dict[str, Dict[str, int]] = {}
        self._epochs: Dict[str, int] = {}

    # -- recorder surface (fed through attach_trace) -----------------------

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the named counter of this collector's source."""
        bucket = self._counters.setdefault(self.source, {})
        bucket[name] = bucket.get(name, 0) + n

    def event(self, kind: str, time_s: float, **fields: object) -> None:
        """Fold one event into counters (no per-event storage).

        Batch-window events additionally feed the occupancy counters so
        :meth:`sample` can report per-epoch batch-window occupancy.
        """
        self.count(f"event:{kind}")
        if kind == "batch_window":
            size = fields.get("size")
            if isinstance(size, int):
                self.count("batch:windows")
                self.count("batch:window_queries", size)

    def span(self, kind: str, start_s: float, end_s: float,
             **fields: object) -> None:
        """Spans fold exactly like events (timestamped at their end)."""
        self.event(kind, time_s=end_s, **fields)

    # -- sampling ----------------------------------------------------------

    def sample(self, time_s: float, epoch: Optional[int] = None,
               final: bool = False, **gauges: object) -> None:
        """Record one per-epoch sample for this collector's source.

        The sample carries the *delta* of every counter that moved since
        the previous sample (cumulative values reconstruct by summing),
        derived rates (``hit_rate``, ``batch_occupancy``) computed from
        those deltas, and whatever ``gauges`` the sampler read off the
        live components.

        Args:
            time_s: simulated time of the settlement barrier.
            epoch: 1-based barrier index; auto-increments when omitted.
            final: marks the trailing barrier that closes the run.
            **gauges: point-in-time values (credit, bytes, surcharge
                dollars, ...) observed at the barrier.
        """
        bucket = self._counters.get(self.source, {})
        mark = self._marks.get(self.source, {})
        deltas = {name: value - mark.get(name, 0)
                  for name, value in bucket.items()
                  if value != mark.get(name, 0)}
        self._marks[self.source] = dict(bucket)
        if epoch is None:
            epoch = self._epochs.get(self.source, 0) + 1
        self._epochs[self.source] = epoch

        payload: Dict[str, object] = {"final": final, "counters": deltas}
        queries = deltas.get("engine:queries", 0)
        if queries:
            payload["hit_rate"] = (
                deltas.get("engine:cache_hits", 0) / queries)
        windows = deltas.get("batch:windows", 0)
        if windows:
            payload["batch_occupancy"] = (
                deltas.get("batch:window_queries", 0) / windows)
        payload.update(gauges)
        self._samples.append((time_s, epoch, self.source, payload))

    # -- introspection -----------------------------------------------------

    @property
    def samples(self) -> List[Dict[str, object]]:
        """Every sample as a flat dict, in sorted emission order."""
        ordered = sorted(self._samples,
                         key=lambda item: (item[0], item[2], item[1]))
        return [dict(payload, time_s=time_s, epoch=epoch, source=source)
                for time_s, epoch, source, payload in ordered]

    @property
    def counters(self) -> Dict[str, Dict[str, int]]:
        """Cumulative counters per source (a copy)."""
        return {source: dict(bucket)
                for source, bucket in self._counters.items()}

    def counter(self, name: str, source: Optional[str] = None) -> int:
        """One cumulative counter (defaults to this collector's source)."""
        bucket = self._counters.get(source or self.source, {})
        return bucket.get(name, 0)

    def __len__(self) -> int:
        return len(self._samples)

    # -- merging -----------------------------------------------------------

    def absorb(self, other: "MetricsTimeseries") -> None:
        """Fold another collector's samples and counters into this one.

        Samples keep their original source tags, so a merged collector
        still emits deterministically; counters merge per source (summed
        only within the same source, mirroring the trace recorder's
        no-double-counting rule for replicated shard replays).
        """
        self._samples.extend(other._samples)
        for source, bucket in other._counters.items():
            target = self._counters.setdefault(source, {})
            for name, value in bucket.items():
                target[name] = target.get(name, 0) + value
        for source, mark in other._marks.items():
            self._marks.setdefault(source, dict(mark))
        for source, epoch in other._epochs.items():
            self._epochs[source] = max(self._epochs.get(source, 0), epoch)

    # -- emission ----------------------------------------------------------

    def jsonl_lines(self) -> List[str]:
        """The timeseries as sorted JSONL lines (deterministic bytes).

        Line 1 is a header carrying the schema version; then one
        ``sample`` line per ``(time_s, source, epoch)`` in sorted order;
        then one cumulative ``counter`` line per ``(source, name)`` pair.
        """
        lines = [json.dumps(
            {"kind": "metrics_header",
             "schema_version": METRICS_SCHEMA_VERSION,
             "samples": len(self._samples),
             "sources": sorted({item[2] for item in self._samples}
                               | set(self._counters))},
            sort_keys=True)]
        for record in self.samples:
            lines.append(json.dumps(dict(record, kind="sample"),
                                    sort_keys=True))
        for source in sorted(self._counters):
            bucket = self._counters[source]
            for name in sorted(bucket):
                lines.append(json.dumps(
                    {"kind": "counter", "source": source, "name": name,
                     "value": bucket[name]},
                    sort_keys=True))
        return lines

    def write(self, path: str) -> None:
        """Write the timeseries as JSONL to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            for line in self.jsonl_lines():
                handle.write(line + "\n")


def peak_rss_bytes() -> Optional[int]:
    """This process's peak resident set size in bytes, or ``None``.

    Reads ``getrusage(RUSAGE_SELF).ru_maxrss`` — the high-water mark the
    kernel tracked for the whole process lifetime, which is exactly the
    quantity the memory-budget CI lane asserts on. Linux reports it in
    KiB, macOS in bytes; platforms without ``resource`` report nothing.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if usage <= 0:  # pragma: no cover - defensive
        return None
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        return int(usage)
    return int(usage) * 1024


class MetricsSampler:
    """Read-only settlement observer that drives :meth:`sample`.

    Registered for :class:`~repro.simulator.events.MaintenanceSettlementEvent`
    through the standard ``run(observers=...)`` hook (observers run
    *after* the built-in handlers, so it snapshots post-settlement
    state). At each barrier it reads gauges off the scheme's live
    components — all plain attribute/property reads; nothing is mutated
    and no RNG is touched, which is what keeps metrics-enabled runs
    byte-identical to disabled ones.

    Args:
        metrics: the collector to drive.
        scheme: the scheme whose components the gauges read.
        rss: also sample :func:`peak_rss_bytes` at every barrier.
            Off by default because the OS high-water mark is **not**
            deterministic across runs — only the streamed drivers (whose
            memory bound it audits) enable it, keeping eager metrics
            emission bitwise reproducible.
    """

    def __init__(self, metrics: MetricsTimeseries, scheme,
                 rss: bool = False) -> None:
        self._metrics = metrics
        self._engine = getattr(scheme, "engine", None)
        self._cache = scheme.cache
        self._rss = rss

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
        if self._rss:
            rss = peak_rss_bytes()
            if rss is not None:
                gauges["peak_rss_bytes"] = rss
        self._metrics.sample(time_s=event.time_s, final=event.final, **gauges)


def metrics_observer_pair(metrics: MetricsTimeseries, scheme,
                          rss: bool = False):
    """The ``(event type, handler)`` pair ``run(observers=...)`` expects."""
    return (MaintenanceSettlementEvent, MetricsSampler(metrics, scheme,
                                                       rss=rss))


# -- composing trace + metrics behind one attach point ----------------------


class RecorderTee:
    """Fans the recorder surface out to several sinks.

    Components hold a single observability attribute (``self._trace``);
    when a run wants both a trace and a metrics timeseries, the tee lets
    them share the attach point. Plain picklable data, so it rides the
    same process-pool round-trips its sinks do.
    """

    def __init__(self, *sinks) -> None:
        self.sinks = tuple(sink for sink in sinks if sink is not None)

    def count(self, name: str, n: int = 1) -> None:
        for sink in self.sinks:
            sink.count(name, n)

    def event(self, kind: str, time_s: float, **fields: object) -> None:
        for sink in self.sinks:
            sink.event(kind, time_s=time_s, **fields)

    def span(self, kind: str, start_s: float, end_s: float,
             **fields: object) -> None:
        for sink in self.sinks:
            sink.span(kind, start_s=start_s, end_s=end_s, **fields)


def combined_recorder(trace: Optional[TraceRecorder],
                      metrics: Optional[MetricsTimeseries]):
    """The single sink to attach for a (trace, metrics) pair.

    Returns whichever one is present, a :class:`RecorderTee` when both
    are, or ``None`` when neither is (nothing to attach).
    """
    if trace is None:
        return metrics
    if metrics is None:
        return trace
    return RecorderTee(trace, metrics)


def trace_part(recorder) -> Optional[TraceRecorder]:
    """The :class:`TraceRecorder` inside an attached sink, if any."""
    if isinstance(recorder, RecorderTee):
        for sink in recorder.sinks:
            if isinstance(sink, TraceRecorder):
                return sink
        return None
    return recorder if isinstance(recorder, TraceRecorder) else None


def metrics_part(recorder) -> Optional[MetricsTimeseries]:
    """The :class:`MetricsTimeseries` inside an attached sink, if any."""
    if isinstance(recorder, RecorderTee):
        for sink in recorder.sinks:
            if isinstance(sink, MetricsTimeseries):
                return sink
        return None
    return recorder if isinstance(recorder, MetricsTimeseries) else None


def attach_observability(scheme, trace: Optional[TraceRecorder] = None,
                         metrics: Optional[MetricsTimeseries] = None,
                         rss: bool = False) -> list:
    """Attach recorders to a scheme; return the kernel observers to run.

    The one helper every execution path (plain cells, scenario runs,
    shard workers, shocked cells) uses, so trace and metrics attach
    identically everywhere: the combined sink lands on the engine (which
    propagates to cache and batch scheduler) or, for the economy-less
    bypass baseline, directly on the cache; a single kernel dispatch
    observer feeds the sink (trace keeps per-event records, metrics folds
    them to counters); the metrics collector additionally gets the
    settlement sampler, registered after the kernel observer so each
    sample's deltas include its own barrier's dispatch.
    """
    observers: list = []
    sink = combined_recorder(trace, metrics)
    if sink is None:
        return observers
    engine = getattr(scheme, "engine", None)
    if engine is not None:
        engine.attach_trace(sink)
    else:
        scheme.cache.attach_trace(sink)
    observers.append(kernel_observer_pair(sink))
    if metrics is not None:
        observers.append(metrics_observer_pair(metrics, scheme, rss=rss))
    return observers
