"""The one observability recorder: counters, trace events, barrier samples.

A :class:`TraceRecorder` is an append-only sink: components that carry one
(the economy engine, the cache manager, the batch scheduler, the kernel
observer) call :meth:`TraceRecorder.count` / :meth:`TraceRecorder.event`
behind a single ``if self._trace is not None`` check, so the hot loop pays
one attribute test when observability is off.

It keeps three things, and writes two artifacts from them:

* one per-source counter store — every event and span also folds into an
  ``event:<kind>`` counter (batch windows into ``batch:*`` occupancy
  counters too);
* the event log, only when ``events`` is on (``--trace``): a metrics-only
  run stores no per-event records, so its memory is bounded by the
  counter and sample cardinality, not the query count;
* the per-epoch samples :meth:`TraceRecorder.sample` takes at settlement
  barriers, which the attach points take only when ``samples`` is on
  (``--metrics``; see :mod:`repro.obs.metrics`).

:meth:`TraceRecorder.trace_lines` emits the event log plus the counters,
:meth:`TraceRecorder.metrics_lines` the samples plus the counters.

The hard invariant — enforced by the observer-purity test suite and the CI
byte-diff — is that attaching a recorder changes **nothing** about a run:
it never reads or advances RNG state, never touches account arithmetic,
and only observes values the run computed anyway. Everything it stores is
plain picklable data, so per-cell recorders travel through
``ProcessPoolExecutor`` round-trips and are merged in cell order with
:meth:`TraceRecorder.absorb`.

Emission is deterministic: records sort by ``(time_s, source, sequence)``,
samples by ``(time_s, source, epoch)``, and every line serializes with
sorted keys, so the same run always produces the same bytes.

Example:
    >>> recorder = TraceRecorder(source="demo", samples=True)
    >>> recorder.count("engine:queries", 4)
    >>> recorder.count("engine:cache_hits", 3)
    >>> recorder.event("handoff", time_s=30.0, key="index:a", owner=1)
    >>> recorder.counter("event:handoff")
    1
    >>> recorder.sample(time_s=60.0, provider_credit=12.5)
    >>> [record["hit_rate"] for record in recorder.samples]
    [0.75]
    >>> len(recorder.trace_lines()), len(recorder.metrics_lines())
    (5, 5)
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.simulator.events import (
    Event,
    MaintenanceSettlementEvent,
    QueryArrivalEvent,
)

#: Bumped whenever the trace JSONL record shape changes incompatibly.
TRACE_SCHEMA_VERSION = 1

#: Bumped whenever the metrics JSONL record shape changes incompatibly.
#: v2: samples no longer carry ``peak_rss_bytes`` (the run manifest does).
METRICS_SCHEMA_VERSION = 2

#: One stored record: ``(time_s, sequence, source, kind, fields)``.
TraceRecord = Tuple[float, int, str, str, Dict[str, object]]

#: One stored sample: ``(time_s, epoch, source, payload)``.
MetricsSample = Tuple[float, int, str, Dict[str, object]]


class TraceRecorder:
    """Counters, optional event log and barrier samples of one run.

    Args:
        source: label stamped on every record and sample this recorder
            produces (``"run"`` for a single run, ``"econ-cheap"`` /
            ``"econ-cheap/partition1"`` for per-cell and per-partition
            recorders merged later).
        events: keep every event and span as a record (the trace
            artifact). Off, they only fold into counters.
        samples: the attach points take a sample at every settlement
            barrier (the metrics artifact).
    """

    def __init__(self, source: str = "run", events: bool = True,
                 samples: bool = False) -> None:
        self.source = source
        self.keeps_events = events
        self.takes_samples = samples
        self._counters: Dict[str, Dict[str, int]] = {}
        self._records: List[TraceRecord] = []
        self._sequence = 0
        self._samples: List[MetricsSample] = []
        # Per-source snapshot of the counters at the last sample, and the
        # per-source epoch cursor (epochs are 1-based like the settlement
        # barriers they mirror).
        self._marks: Dict[str, Dict[str, int]] = {}
        self._epochs: Dict[str, int] = {}

    def fresh(self, source: str) -> "TraceRecorder":
        """An empty recorder for ``source`` that keeps what this one keeps
        (a cell's, partition's or grid cell's, absorbed here later)."""
        return TraceRecorder(source, events=self.keeps_events,
                             samples=self.takes_samples)

    # -- recording ---------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the named counter of this recorder's source."""
        bucket = self._counters.setdefault(self.source, {})
        bucket[name] = bucket.get(name, 0) + n

    def event(self, kind: str, time_s: float, **fields: object) -> None:
        """Fold one timestamped event into counters; log it if kept.

        Batch-window events also feed the occupancy counters, so
        :meth:`sample` can report per-epoch batch-window occupancy.
        """
        self.count(f"event:{kind}")
        if kind == "batch_window":
            size = fields.get("size")
            if isinstance(size, int):
                self.count("batch:windows")
                self.count("batch:window_queries", size)
        if self.keeps_events:
            self._records.append(
                (time_s, self._sequence, self.source, kind, fields))
            self._sequence += 1

    def span(self, kind: str, start_s: float, end_s: float,
             **fields: object) -> None:
        """Record a span (timestamped at its end, duration derived)."""
        self.event(kind, time_s=end_s, start_s=start_s,
                   duration_s=end_s - start_s, **fields)

    def sample(self, time_s: float, epoch: Optional[int] = None,
               final: bool = False, **gauges: object) -> None:
        """Record one per-epoch sample for this recorder's source.

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
    def records(self) -> Tuple[TraceRecord, ...]:
        """Every kept event record, in append order."""
        return tuple(self._records)

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
        """One counter's value (defaults to this recorder's own source)."""
        bucket = self._counters.get(source or self.source, {})
        return bucket.get(name, 0)

    # -- merging -----------------------------------------------------------

    def absorb(self, other: "TraceRecorder") -> None:
        """Fold another recorder's records, samples and counters into this.

        Records and samples keep their original source tags (and records
        their per-source sequence), so a merged recorder still sorts
        deterministically; counters merge per source (summing only within
        the same source).
        """
        self._records.extend(other._records)
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

    def trace_lines(self) -> List[str]:
        """The trace as sorted JSONL lines (deterministic bytes).

        Line 1 is a header carrying the schema version; then every event
        record sorted by ``(time_s, source, sequence)``; then one counter
        line per ``(source, counter)`` pair in sorted order.
        """
        lines = [json.dumps(
            {"kind": "trace_header",
             "schema_version": TRACE_SCHEMA_VERSION,
             "events": len(self._records),
             "sources": sorted({record[2] for record in self._records}
                               | set(self._counters))},
            sort_keys=True)]
        ordered = sorted(self._records,
                         key=lambda record: (record[0], record[2], record[1]))
        for time_s, sequence, source, kind, fields in ordered:
            payload = {"kind": kind, "time_s": time_s, "source": source,
                       "seq": sequence}
            payload.update(fields)
            lines.append(json.dumps(payload, sort_keys=True))
        return lines + self._counter_lines()

    def metrics_lines(self) -> List[str]:
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
        return lines + self._counter_lines()

    def _counter_lines(self) -> List[str]:
        return [json.dumps({"kind": "counter", "source": source,
                            "name": name, "value": bucket[name]},
                           sort_keys=True)
                for source, bucket in sorted(self._counters.items())
                for name in sorted(bucket)]

    def write_trace(self, path: str) -> None:
        """Write :meth:`trace_lines` to ``path``."""
        _write_lines(path, self.trace_lines())

    def write_metrics(self, path: str) -> None:
        """Write :meth:`metrics_lines` to ``path``."""
        _write_lines(path, self.metrics_lines())


def _write_lines(path: str, lines: List[str]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")


class KernelTraceObserver:
    """Read-only kernel observer: dispatch counts + settlement spans.

    Registered for the base :class:`~repro.simulator.events.Event` type
    through the standard ``run(observers=...)`` hook, so it sees every
    dispatched event *after* the built-in handlers ran (observers register
    last). It counts dispatches per event class and records a
    ``settlement_barrier`` span from the previous barrier (or the first
    observed instant) to each maintenance settlement, tagged with the
    kernel's query-dispatch progress.
    """

    def __init__(self, recorder: TraceRecorder) -> None:
        self._recorder = recorder
        self._span_start: Optional[float] = None

    def __call__(self, event: Event, kernel) -> None:
        recorder = self._recorder
        recorder.count(f"event:{type(event).__name__}")
        if self._span_start is None:
            self._span_start = event.time_s
        if isinstance(event, MaintenanceSettlementEvent):
            recorder.span(
                "settlement_barrier",
                start_s=self._span_start,
                end_s=event.time_s,
                queries_dispatched=kernel.dispatch_count(QueryArrivalEvent),
                events_dispatched=kernel.dispatch_count(),
                final=event.final,
            )
            self._span_start = event.time_s


def kernel_observer_pair(recorder: TraceRecorder):
    """The ``(event type, handler)`` pair ``run(observers=...)`` expects."""
    return (Event, KernelTraceObserver(recorder))
