"""TraceRecorder unit tests: recording, merging, deterministic emission."""

import json
import pickle

from repro.obs.trace import (
    TRACE_SCHEMA_VERSION,
    KernelTraceObserver,
    TraceRecorder,
    kernel_observer_pair,
)
from repro.simulator.events import Event, MaintenanceSettlementEvent


class TestRecording:
    def test_counters_bucket_by_source(self):
        recorder = TraceRecorder(source="shard0")
        recorder.count("cache:admit")
        recorder.count("cache:admit", 2)
        assert recorder.counter("cache:admit") == 3
        assert recorder.counter("cache:admit", source="shard1") == 0
        assert recorder.counters == {"shard0": {"cache:admit": 3}}

    def test_events_keep_append_order_and_source(self):
        recorder = TraceRecorder(source="run")
        recorder.event("handoff", time_s=30.0, key="a")
        recorder.event("handoff", time_s=10.0, key="b")
        assert len(recorder.records) == 2
        times = [record[0] for record in recorder.records]
        assert times == [30.0, 10.0]

    def test_span_derives_duration(self):
        recorder = TraceRecorder()
        recorder.span("settlement_barrier", start_s=10.0, end_s=25.0, epoch=1)
        ((time_s, _, _, kind, fields),) = recorder.records
        assert kind == "settlement_barrier"
        assert time_s == 25.0
        assert fields["duration_s"] == 15.0


class TestAbsorb:
    def test_absorb_preserves_source_tags_and_counters(self):
        merged = TraceRecorder(source="merge")
        for shard in range(2):
            recorder = TraceRecorder(source=f"shard{shard}")
            recorder.count("engine:queries", 5)
            recorder.event("settlement_barrier", time_s=60.0)
            merged.absorb(recorder)
        assert len(merged.records) == 2
        assert merged.counter("engine:queries", source="shard0") == 5
        assert merged.counter("engine:queries", source="shard1") == 5
        # Replicated per-shard counters are never summed across sources.
        assert "merge" not in merged.counters

    def test_absorb_sums_within_same_source(self):
        target = TraceRecorder(source="run")
        target.count("cache:admit", 1)
        other = TraceRecorder(source="run")
        other.count("cache:admit", 2)
        target.absorb(other)
        assert target.counter("cache:admit") == 4 - 1


class TestEmission:
    def test_jsonl_header_and_ordering(self):
        recorder = TraceRecorder(source="b")
        recorder.event("later", time_s=20.0)
        recorder.event("earlier", time_s=10.0)
        other = TraceRecorder(source="a")
        other.event("tied", time_s=10.0)
        other.count("cache:admit")
        recorder.absorb(other)
        lines = [json.loads(line) for line in recorder.trace_lines()]
        assert lines[0]["kind"] == "trace_header"
        assert lines[0]["schema_version"] == TRACE_SCHEMA_VERSION
        assert lines[0]["sources"] == ["a", "b"]
        # Sorted by (time_s, source, seq): the a-record ties on time and
        # wins on source; counters come last, sorted by source and name,
        # each event folded into an event:<kind> counter too.
        assert [line["kind"] for line in lines[1:4]] == [
            "tied", "earlier", "later"]
        assert [(line["source"], line["name"]) for line in lines[4:]] == [
            ("a", "cache:admit"), ("a", "event:tied"),
            ("b", "event:earlier"), ("b", "event:later")]

    def test_emission_is_deterministic_bytes(self):
        def build():
            recorder = TraceRecorder()
            recorder.count("x", 2)
            recorder.event("e", time_s=1.5, value=3)
            return "\n".join(recorder.trace_lines())

        assert build() == build()

    def test_write_round_trips(self, tmp_path):
        recorder = TraceRecorder()
        recorder.event("e", time_s=0.0)
        path = tmp_path / "trace.jsonl"
        recorder.write_trace(str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 3  # header, the event, its event:e counter
        assert json.loads(lines[0])["events"] == 1

    def test_recorder_pickles(self):
        recorder = TraceRecorder(source="shard1")
        recorder.count("cache:admit")
        recorder.event("e", time_s=5.0)
        clone = pickle.loads(pickle.dumps(recorder))
        assert clone.trace_lines() == recorder.trace_lines()


class TestKernelObserver:
    def test_counts_dispatches_and_spans_barriers(self):
        from repro.simulator.kernel import SimulationKernel

        recorder = TraceRecorder()
        event_type, observer = kernel_observer_pair(recorder)
        assert event_type is Event
        assert isinstance(observer, KernelTraceObserver)

        kernel = SimulationKernel()
        kernel.register(Event, observer)
        kernel.schedule(MaintenanceSettlementEvent(time_s=60.0))
        kernel.run()
        assert recorder.counter("event:MaintenanceSettlementEvent") == 1
        ((_, _, _, kind, fields),) = recorder.records
        assert kind == "settlement_barrier"
        assert fields["final"] is False
