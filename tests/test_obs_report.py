"""Report pipeline tests: schema validation, fail-soft ingest, artifacts."""

import json
import os

import pytest

from repro.obs.report import (
    BENCH_NAMES,
    REPORT_SCHEMA_VERSION,
    ingest_bench_files,
    render_report,
    write_report_artifacts,
)
from repro.obs.schema import validate_bench, validate_report

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The checked-in perf-history files, one per benchmark kind.
CHECKED_IN = [os.path.join(REPO_ROOT, name) for _, name in BENCH_NAMES]


def _placement_doc(**changes):
    """A small, schema-valid placement bench document."""
    document = {"benchmark": "placement", "python": "x", "seed": 0,
                "runs": [{}], "scheme": "s", "tenant_count": 1,
                "query_count": 1, "partitions": 2, "handoff_threshold": 0.0}
    document.update(changes)
    return document


class TestValidateBench:
    def test_all_checked_in_bench_files_are_schema_valid(self):
        for path in CHECKED_IN:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
            assert validate_bench(document) == [], path

    def test_missing_required_field(self):
        problems = validate_bench({"benchmark": "placement",
                                   "python": "3.11"})
        assert any("seed" in problem for problem in problems)

    def test_unknown_kind(self):
        document = {"benchmark": "nope", "python": "x", "seed": 0,
                    "runs": [{}]}
        assert any("unknown benchmark kind" in problem
                   for problem in validate_bench(document))

    def test_kind_mismatch_against_file_name(self):
        document = _placement_doc()
        assert validate_bench(document, expected_kind="placement") == []
        assert validate_bench(document, expected_kind="sharding")

    def test_bool_int_confusion_is_caught(self):
        document = _placement_doc(partitions=True)
        assert any("partitions" in problem
                   for problem in validate_bench(document))

    def test_non_object_document(self):
        assert validate_bench([1, 2, 3])


class TestIngest:
    def test_always_covers_all_five_kinds(self, tmp_path):
        """Every declared kind gets a row, even with no file supplied."""
        ingests = ingest_bench_files([])
        assert [ingest.kind for ingest in ingests] == [
            kind for kind, _ in BENCH_NAMES]
        assert all(ingest.status == "missing" for ingest in ingests)

    def test_legacy_file_degrades_to_warning(self, tmp_path):
        legacy = tmp_path / "BENCH_placement.json"
        legacy.write_text(json.dumps({"benchmark": "placement"}))
        ingests = ingest_bench_files([str(legacy)])
        placement = next(i for i in ingests if i.kind == "placement")
        assert placement.found and not placement.valid
        assert placement.status == "invalid"

    def test_unreadable_file_degrades_to_missing(self, tmp_path):
        ingests = ingest_bench_files(
            [str(tmp_path / "BENCH_placement.json")])
        placement = next(i for i in ingests if i.kind == "placement")
        assert placement.status == "missing"


class TestRenderReport:
    def test_report_is_schema_valid_over_checked_in_files(self):
        report, markdown = render_report(CHECKED_IN)
        assert validate_report(report) == []
        assert report["schema_version"] == REPORT_SCHEMA_VERSION
        assert report["warnings"] == []
        assert sorted(report["benches"]) == sorted(
            kind for kind, _ in BENCH_NAMES)
        # The backfill summary table renders one row per benchmark.
        for kind, name in BENCH_NAMES:
            assert f"| {kind} | {name} | ok |" in markdown

    def test_missing_files_render_with_warnings(self):
        report, markdown = render_report([])
        assert validate_report(report) == []
        assert len(report["warnings"]) == len(BENCH_NAMES)
        assert "missing" in markdown

    def test_trace_summaries_fold_in(self, tmp_path):
        from repro.obs.trace import TraceRecorder

        recorder = TraceRecorder()
        recorder.event("e", time_s=1.0)
        recorder.count("cache:admit")
        trace_path = tmp_path / "t.jsonl"
        recorder.write_trace(str(trace_path))
        report, markdown = render_report([], [str(trace_path)])
        (trace,) = report["traces"]
        assert trace["events"] == 1
        # cache:admit, plus the event's own event:e fold counter.
        assert trace["counters"] == 2
        assert "## Traces" in markdown


class TestWriteArtifacts:
    def test_writes_three_artifacts(self, tmp_path):
        out = tmp_path / "artifacts"
        targets = write_report_artifacts(CHECKED_IN, str(out))
        assert sorted(targets) == ["json", "manifest", "markdown"]
        report = json.loads((out / "report.json").read_text())
        assert validate_report(report) == []
        manifest = json.loads((out / "report.manifest.json").read_text())
        assert manifest["command"] == "report"
        assert manifest["warnings"] == 0

    def test_refuses_overwrite_without_force(self, tmp_path):
        out = tmp_path / "artifacts"
        write_report_artifacts([], str(out))
        with pytest.raises(FileExistsError):
            write_report_artifacts([], str(out))
        write_report_artifacts([], str(out), force=True)
