"""Metrics side of the recorder: sampling, merging, emission, and what
one recorder keeps for a trace and for metrics."""

import functools
import json

from repro.obs.trace import METRICS_SCHEMA_VERSION, TraceRecorder

#: A recorder as ``--metrics`` alone builds it.
metrics_recorder = functools.partial(TraceRecorder, events=False,
                                     samples=True)


class TestSampling:
    def test_samples_carry_counter_deltas_not_cumulative_values(self):
        metrics = metrics_recorder()
        metrics.count("engine:queries", 10)
        metrics.sample(time_s=60.0)
        metrics.count("engine:queries", 5)
        metrics.sample(time_s=120.0)
        first, second = metrics.samples
        assert first["counters"]["engine:queries"] == 10
        assert second["counters"]["engine:queries"] == 5
        # Cumulative value reconstructs by summing the deltas.
        assert metrics.counter("engine:queries") == 15

    def test_unmoved_counters_are_omitted_from_the_sample(self):
        metrics = metrics_recorder()
        metrics.count("engine:queries", 3)
        metrics.sample(time_s=60.0)
        metrics.count("cache:admit")
        metrics.sample(time_s=120.0)
        second = metrics.samples[1]
        assert "engine:queries" not in second["counters"]
        assert second["counters"]["cache:admit"] == 1

    def test_hit_rate_derives_from_the_epoch_deltas(self):
        metrics = metrics_recorder()
        metrics.count("engine:queries", 4)
        metrics.count("engine:cache_hits", 3)
        metrics.sample(time_s=60.0)
        assert metrics.samples[0]["hit_rate"] == 0.75

    def test_batch_occupancy_derives_from_window_events(self):
        metrics = metrics_recorder()
        metrics.event("batch_window", time_s=10.0, size=4)
        metrics.event("batch_window", time_s=20.0, size=2)
        metrics.sample(time_s=60.0)
        assert metrics.samples[0]["batch_occupancy"] == 3.0

    def test_epochs_auto_increment_per_source(self):
        metrics = metrics_recorder()
        metrics.sample(time_s=60.0)
        metrics.sample(time_s=120.0)
        metrics.sample(time_s=180.0, final=True)
        assert [s["epoch"] for s in metrics.samples] == [1, 2, 3]
        assert [s["final"] for s in metrics.samples] == [False, False, True]

    def test_gauges_ride_the_sample_payload(self):
        metrics = metrics_recorder()
        metrics.sample(time_s=60.0, provider_credit=12.5, cache_entries=3)
        sample = metrics.samples[0]
        assert sample["provider_credit"] == 12.5
        assert sample["cache_entries"] == 3

    def test_events_fold_into_counters_without_per_event_storage(self):
        metrics = metrics_recorder()
        for _ in range(100):
            metrics.event("QueryArrivalEvent", time_s=1.0)
        metrics.span("settlement", start_s=0.0, end_s=60.0)
        assert metrics.counter("event:QueryArrivalEvent") == 100
        assert metrics.counter("event:settlement") == 1
        # No samples yet, and nothing stored per event.
        assert metrics.samples == [] and metrics.records == ()


class TestAbsorb:
    def test_absorb_keeps_source_tags_and_sums_per_source(self):
        merged = metrics_recorder(source="merge")
        for index in range(2):
            shard = metrics_recorder(source=f"shard{index}")
            shard.count("engine:queries", 60)
            shard.sample(time_s=60.0)
            merged.absorb(shard)
        assert sorted(merged.counters) == ["shard0", "shard1"]
        # Replicated replays must not double-count across sources.
        assert merged.counter("engine:queries", source="shard0") == 60
        assert len(merged.samples) == 2

    def test_absorbed_emission_is_sorted_and_deterministic(self):
        first = metrics_recorder(source="b")
        first.sample(time_s=60.0)
        second = metrics_recorder(source="a")
        second.sample(time_s=60.0)
        merged = metrics_recorder(source="merge")
        merged.absorb(first)
        merged.absorb(second)
        sources = [s["source"] for s in merged.samples]
        assert sources == ["a", "b"]
        reversed_merge = metrics_recorder(source="merge")
        reversed_merge.absorb(second)
        reversed_merge.absorb(first)
        assert merged.metrics_lines() == reversed_merge.metrics_lines()


class TestEmission:
    def test_header_samples_and_counters_in_order(self):
        metrics = metrics_recorder()
        metrics.count("engine:queries", 6)
        metrics.sample(time_s=60.0, final=True)
        lines = [json.loads(line) for line in metrics.metrics_lines()]
        assert lines[0]["kind"] == "metrics_header"
        assert lines[0]["schema_version"] == METRICS_SCHEMA_VERSION
        assert lines[0]["samples"] == 1
        assert lines[1]["kind"] == "sample"
        assert lines[2] == {"kind": "counter", "source": "run",
                            "name": "engine:queries", "value": 6}

    def test_write_roundtrips(self, tmp_path):
        metrics = metrics_recorder()
        metrics.sample(time_s=60.0)
        path = tmp_path / "m.jsonl"
        metrics.write_metrics(str(path))
        assert path.read_text().splitlines() == metrics.metrics_lines()


class TestOneRecorder:
    def test_events_kept_only_for_a_trace(self):
        both = TraceRecorder(events=True, samples=True)
        metrics_only = TraceRecorder(events=False, samples=True)
        for recorder in (both, metrics_only):
            recorder.count("cache:admit")
            recorder.event("eviction", time_s=5.0)
            recorder.span("build", start_s=0.0, end_s=2.0)
            assert recorder.counter("cache:admit") == 1
            assert recorder.counter("event:eviction") == 1
            assert recorder.counter("event:build") == 1
        assert [record[3] for record in both.records] == ["eviction", "build"]
        assert metrics_only.records == ()

    def test_fresh_keeps_what_the_recorder_keeps(self):
        recorder = TraceRecorder(events=False, samples=True)
        recorder.count("cache:admit")
        shard = recorder.fresh("shard1")
        assert shard.source == "shard1"
        assert (shard.keeps_events, shard.takes_samples) == (False, True)
        assert shard.counters == {}

    def test_both_artifacts_share_the_counter_lines(self):
        recorder = TraceRecorder(samples=True)
        recorder.count("engine:queries", 2)
        recorder.event("handoff", time_s=5.0)
        recorder.sample(time_s=60.0)
        trace, metrics = recorder.trace_lines(), recorder.metrics_lines()
        assert json.loads(trace[0])["kind"] == "trace_header"
        assert json.loads(metrics[0])["kind"] == "metrics_header"
        assert trace[2:] == metrics[2:]
        assert [json.loads(line)["name"] for line in trace[2:]] == [
            "engine:queries", "event:handoff"]
