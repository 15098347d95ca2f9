"""Report pipeline tests: trace/metrics summaries, fail-soft, artifacts."""

import json

import pytest

from repro.obs.report import (
    REPORT_SCHEMA_VERSION,
    render_report,
    write_report_artifacts,
)
from repro.obs.trace import TraceRecorder


def _trace_file(tmp_path, name="t.jsonl"):
    """A one-event trace artifact written by the real recorder."""
    recorder = TraceRecorder()
    recorder.event("e", time_s=1.0)
    recorder.count("cache:admit")
    path = tmp_path / name
    recorder.write_trace(str(path))
    return path


class TestIngest:
    def test_legacy_file_degrades_to_warning(self, tmp_path):
        """An artifact of another schema version is summarized with a
        problem and a warning, not refused."""
        legacy = tmp_path / "legacy.jsonl"
        legacy.write_text(json.dumps({"kind": "trace_header",
                                      "schema_version": 0}) + "\n")
        report, markdown = render_report([str(legacy)])
        (trace,) = report["traces"]
        assert "schema version 0" in trace["problem"]
        assert report["warnings"] == [f"{legacy}: {trace['problem']}"]
        assert "## Warnings" in markdown


class TestRenderReport:
    def test_missing_files_render_with_warnings(self, tmp_path):
        missing = tmp_path / "gone.jsonl"
        report, markdown = render_report([str(missing)])
        assert report["schema_version"] == REPORT_SCHEMA_VERSION
        (trace,) = report["traces"]
        assert trace["problem"].startswith("unreadable")
        assert len(report["warnings"]) == 1
        assert "problem: unreadable" in markdown

    def test_trace_summaries_fold_in(self, tmp_path):
        trace_path = _trace_file(tmp_path)
        report, markdown = render_report([str(trace_path)])
        assert sorted(report) == ["generator", "schema_version", "traces",
                                  "warnings"]
        (trace,) = report["traces"]
        assert trace["events"] == 1
        # cache:admit, plus the event's own event:e fold counter.
        assert trace["counters"] == 2
        assert "## Traces" in markdown


class TestWriteArtifacts:
    def test_writes_three_artifacts(self, tmp_path):
        out = tmp_path / "artifacts"
        targets = write_report_artifacts([str(_trace_file(tmp_path))],
                                         str(out))
        assert sorted(targets) == ["json", "manifest", "markdown"]
        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == REPORT_SCHEMA_VERSION
        assert report["warnings"] == []
        manifest = json.loads((out / "report.manifest.json").read_text())
        assert manifest["command"] == "report"
        assert manifest["warnings"] == 0

    def test_refuses_overwrite_without_force(self, tmp_path):
        out = tmp_path / "artifacts"
        traces = [str(_trace_file(tmp_path))]
        write_report_artifacts(traces, str(out))
        with pytest.raises(FileExistsError):
            write_report_artifacts(traces, str(out))
        write_report_artifacts(traces, str(out), force=True)
