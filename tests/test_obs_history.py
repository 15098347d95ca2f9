"""Bench-history tests: records, comparability, deltas, gates, fallbacks."""

import json
import os

import pytest

from repro.obs.history import (
    HISTORY_SCHEMA_VERSION,
    METRIC_DIRECTIONS,
    RegressionGates,
    append_bench_history,
    bench_config_hash,
    compute_deltas,
    history_metrics,
    latest_comparable,
    load_history,
    record_from_bench,
)
from repro.obs.report import BENCH_NAMES
from repro.obs.schema import validate_history_record

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _placement_doc(surcharge=2.0, seed=0):
    return {
        "benchmark": "placement", "scheme": "econ-cheap", "seed": seed,
        "python": "3.11.0", "tenant_count": 24, "query_count": 160,
        "partitions": 2, "handoff_threshold": 0.0,
        "runs": [
            {"placement": "hash", "handoffs": 0, "remote_hit_rate": 0.5,
             "remote_surcharge_dollars": surcharge * 2},
            {"placement": "adaptive", "handoffs": 7, "remote_hit_rate": 0.25,
             "remote_surcharge_dollars": surcharge},
        ],
    }


class TestConfigHash:
    def test_result_fields_do_not_affect_comparability(self):
        cheap, dear = _placement_doc(surcharge=1.0), _placement_doc(3.0)
        assert bench_config_hash(cheap) == bench_config_hash(dear)

    def test_config_fields_do_affect_comparability(self):
        assert bench_config_hash(_placement_doc(seed=0)) \
            != bench_config_hash(_placement_doc(seed=1))


class TestHistoryMetrics:
    def test_planner_metrics_cover_every_mode(self):
        """Planner throughput is timed by the end-to-end benchmark now: a
        leftover planner document yields nothing to gate."""
        runs = [{"benchmark_mode": mode, "queries_per_s": 1000.0}
                for mode in ("scalar", "batched-cold", "batched-warm")]
        assert history_metrics({"benchmark": "planner", "runs": runs}) == {}

    def test_every_extracted_metric_has_a_declared_direction(self):
        """The failure mode METRIC_DIRECTIONS exists to prevent: a metric
        extracted for gating with no declared better-direction."""
        paths = [os.path.join(REPO_ROOT, name) for _, name in BENCH_NAMES]
        for path in paths:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
            for name in history_metrics(document):
                assert name in METRIC_DIRECTIONS, name


class TestRecordAndStore:
    def test_record_is_schema_valid(self):
        record = record_from_bench(_placement_doc(), git_sha="abc",
                                   recorded_at="2026-01-01T00:00:00Z")
        assert validate_history_record(record.to_dict()) == []
        assert record.schema_version == HISTORY_SCHEMA_VERSION

    def test_append_load_roundtrip(self, tmp_path):
        path = append_bench_history(_placement_doc(), str(tmp_path),
                                    git_sha="abc")
        assert path.endswith("placement.jsonl")
        append_bench_history(_placement_doc(surcharge=3.0), str(tmp_path),
                             git_sha="def")
        records, problems = load_history(str(tmp_path))
        assert problems == []
        assert [r.git_sha for r in records["placement"]] == ["abc", "def"]

    def test_git_sha_fallback_outside_a_git_repo(self, tmp_path,
                                                 monkeypatch):
        """Records written outside a repository are valid, just
        unattributable — the RunManifest satellite contract."""
        monkeypatch.chdir(tmp_path)
        record = record_from_bench(_placement_doc())
        assert record.git_sha is None
        assert validate_history_record(record.to_dict()) == []

    def test_manifest_git_sha_fallback_outside_a_git_repo(self, tmp_path,
                                                          monkeypatch):
        from repro.obs.manifest import build_manifest

        monkeypatch.chdir(tmp_path)
        manifest = build_manifest("tenants")
        assert manifest.git_sha is None
        # The manifest still serializes the key (fail-soft, not absent).
        assert "git_sha" in manifest.to_dict()

    def test_load_history_is_fail_soft_over_corrupt_lines(self, tmp_path):
        good = record_from_bench(_placement_doc(), git_sha="abc").to_json()
        (tmp_path / "placement.jsonl").write_text(
            good + "\n"
            + "{not json\n"                       # corrupt line
            + json.dumps({"benchmark": "placement"}) + "\n"  # invalid
            + good + "\n")
        records, problems = load_history(str(tmp_path))
        assert len(records["placement"]) == 2
        assert any("not valid JSON" in problem for problem in problems)
        assert any("missing required field" in problem
                   for problem in problems)

    def test_load_history_missing_dir_degrades_to_problem(self, tmp_path):
        records, problems = load_history(str(tmp_path / "nope"))
        assert records == {}
        assert problems and "does not exist" in problems[0]


class TestLatestComparable:
    def test_last_matching_record_wins(self, tmp_path):
        for sha in ("a", "b", "c"):
            append_bench_history(_placement_doc(), str(tmp_path), git_sha=sha)
        append_bench_history(_placement_doc(seed=9), str(tmp_path),
                             git_sha="other-config")
        records, _ = load_history(str(tmp_path))
        baseline = latest_comparable(records["placement"],
                                     bench_config_hash(_placement_doc()))
        assert baseline.git_sha == "c"

    def test_no_comparable_record_returns_none(self):
        assert latest_comparable([], "deadbeef") is None


class TestGates:
    def test_thresholds_classify_regressions(self):
        gates = RegressionGates(warn_slowdown=0.10, fail_slowdown=0.25)
        assert gates.status_of(None) == "info"
        assert gates.status_of(-0.5) == "ok"       # improvement
        assert gates.status_of(0.05) == "ok"       # sub-threshold noise
        assert gates.status_of(0.10) == "warn"
        assert gates.status_of(0.25) == "fail"

    def test_invalid_gates_raise(self):
        with pytest.raises(ValueError):
            RegressionGates(warn_slowdown=0.0)
        with pytest.raises(ValueError):
            RegressionGates(warn_slowdown=0.5, fail_slowdown=0.1)


class TestComputeDeltas:
    def test_higher_is_better_flags_drops(self, monkeypatch):
        """Throughput gates the other way round: a drop regresses."""
        monkeypatch.setitem(METRIC_DIRECTIONS, "queries_per_s", "higher")
        baseline = record_from_bench(_placement_doc(), git_sha="abc")
        object.__setattr__(baseline, "metrics", {"queries_per_s": 1000.0})
        (delta,) = compute_deltas({"queries_per_s": 800.0}, baseline)
        assert delta.change == pytest.approx(-0.2)
        assert delta.regression == pytest.approx(0.2)
        assert delta.status == "warn"

    def test_lower_is_better_flags_rises(self):
        baseline = record_from_bench(_placement_doc(surcharge=1.0),
                                     git_sha="abc")
        current = history_metrics(_placement_doc(surcharge=1.5))
        deltas = {d.name: d for d in compute_deltas(current, baseline)}
        surcharge = deltas["remote_surcharge_dollars"]
        assert surcharge.regression == pytest.approx(0.5)
        assert surcharge.status == "fail"

    def test_info_metrics_never_gate(self):
        baseline = record_from_bench(
            {"benchmark": "placement", "python": "x", "seed": 0,
             "scheme": "s", "tenant_count": 5, "query_count": 10,
             "partitions": 2, "handoff_threshold": 0.0,
             "runs": [{"placement": "adaptive", "handoffs": 10,
                       "remote_hit_rate": 0.1,
                       "remote_surcharge_dollars": 1.0}]},
            git_sha="abc")
        deltas = {d.name: d
                  for d in compute_deltas({"handoffs": 100.0}, baseline)}
        assert deltas["handoffs"].regression is None
        assert deltas["handoffs"].status == "info"

    def test_metrics_missing_on_either_side_are_skipped(self):
        baseline = record_from_bench(_placement_doc(), git_sha="abc")
        deltas = compute_deltas({"remote_hit_rate": 0.25,
                                 "scalar_queries_per_s": 5.0}, baseline)
        assert [d.name for d in deltas] == ["remote_hit_rate"]

    def test_undeclared_direction_fails_loudly(self):
        baseline = record_from_bench(_placement_doc(), git_sha="abc")
        object.__setattr__(baseline, "metrics",
                           dict(baseline.metrics, mystery_metric=1.0))
        with pytest.raises(KeyError):
            compute_deltas({"mystery_metric": 2.0}, baseline)

    def test_zero_baseline_is_inf_change_not_a_crash(self):
        baseline = record_from_bench(_placement_doc(surcharge=0.0),
                                     git_sha="abc")
        deltas = {d.name: d for d in compute_deltas(
            {"remote_surcharge_dollars": 10.0}, baseline)}
        assert deltas["remote_surcharge_dollars"].change == float("inf")
