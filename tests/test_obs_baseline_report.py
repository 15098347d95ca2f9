"""Report baseline/grids tests: delta columns, gates, fail-soft ingest."""

import json
import os

from repro.obs.history import RegressionGates, append_bench_history
from repro.obs.report import render_report, write_report_artifacts
from repro.obs.schema import validate_report

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKED_IN_PLACEMENT = os.path.join(REPO_ROOT, "BENCH_placement.json")


def _placement_doc(scale=1.0):
    """A small, self-consistent placement bench document; ``scale``
    multiplies the adaptive run's surcharge (above 1 is a regression)."""
    return {
        "benchmark": "placement", "python": "3.11.0", "seed": 0,
        "scheme": "econ-cheap", "tenant_count": 10, "query_count": 50,
        "partitions": 2, "handoff_threshold": 0.0,
        "runs": [{"placement": "adaptive", "handoffs": 4,
                  "remote_hit_rate": 0.2,
                  "remote_surcharge_dollars": 1.0 * scale}],
    }


def _write_bench(tmp_path, doc):
    path = tmp_path / "BENCH_placement.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestBaselineDeltas:
    def test_identical_run_renders_ok_deltas(self, tmp_path):
        history = tmp_path / "history"
        append_bench_history(_placement_doc(), str(history), git_sha="abc")
        bench = _write_bench(tmp_path, _placement_doc())
        report, markdown = render_report([bench],
                                         baseline_dir=str(history))
        assert validate_report(report) == []
        entry = report["baseline"]["benches"]["placement"]
        assert entry["comparable"] is True
        assert entry["baseline_git_sha"] == "abc"
        assert {d["status"] for d in entry["deltas"]} == {"ok", "info"}
        assert not any("regression" in warning
                       for warning in report["warnings"])
        # Summary table gains the delta/perf columns.
        assert "| delta | perf |" in markdown
        assert "## Baseline deltas" in markdown
        row = next(line for line in markdown.splitlines()
                   if line.startswith("| placement |"))
        assert row.endswith("| +0.0% | ok |")

    def test_injected_slowdown_trips_the_warn_gate(self, tmp_path):
        history = tmp_path / "history"
        append_bench_history(_placement_doc(), str(history), git_sha="abc")
        bench = _write_bench(tmp_path, _placement_doc(scale=1.15))
        report, markdown = render_report([bench],
                                         baseline_dir=str(history))
        entry = report["baseline"]["benches"]["placement"]
        statuses = {d["metric"]: d["status"] for d in entry["deltas"]}
        assert statuses["remote_surcharge_dollars"] == "warn"
        assert any("perf regression warn" in warning
                   for warning in report["warnings"])
        row = next(line for line in markdown.splitlines()
                   if line.startswith("| placement |"))
        assert row.endswith("| warn |")

    def test_big_slowdown_trips_the_fail_gate(self, tmp_path):
        history = tmp_path / "history"
        append_bench_history(_placement_doc(), str(history), git_sha="abc")
        bench = _write_bench(tmp_path, _placement_doc(scale=1.5))
        report, markdown = render_report([bench],
                                         baseline_dir=str(history))
        assert any("perf regression fail" in warning
                   for warning in report["warnings"])
        row = next(line for line in markdown.splitlines()
                   if line.startswith("| placement |"))
        assert row.endswith("| FAIL |")

    def test_gates_are_configurable(self, tmp_path):
        history = tmp_path / "history"
        append_bench_history(_placement_doc(), str(history), git_sha="abc")
        bench = _write_bench(tmp_path, _placement_doc(scale=1.15))
        report, _ = render_report(
            [bench], baseline_dir=str(history),
            gates=RegressionGates(warn_slowdown=0.5, fail_slowdown=0.6))
        entry = report["baseline"]["benches"]["placement"]
        assert all(d["status"] in ("ok", "info") for d in entry["deltas"])
        assert not any("regression" in warning
                       for warning in report["warnings"])

    def test_config_mismatch_is_incomparable_not_a_warning(self, tmp_path):
        """CI's reduced sizes must never gate against full-size history."""
        history = tmp_path / "history"
        append_bench_history(_placement_doc(), str(history), git_sha="abc")
        small = _placement_doc()
        small["query_count"] = 7  # different config -> different hash
        bench = _write_bench(tmp_path, small)
        report, markdown = render_report([bench],
                                         baseline_dir=str(history))
        entry = report["baseline"]["benches"]["placement"]
        assert entry["comparable"] is False
        assert "no comparable" in entry["reason"]
        assert not any("regression" in warning
                       for warning in report["warnings"])
        assert "not comparable" in markdown

    def test_no_baseline_keeps_v1_summary_table_shape(self, tmp_path):
        bench = _write_bench(tmp_path, _placement_doc())
        report, markdown = render_report([bench])
        assert "baseline" not in report
        assert "| delta |" not in markdown
        assert "## Baseline deltas" not in markdown

    def test_artifacts_carry_the_baseline_section(self, tmp_path):
        history = tmp_path / "history"
        append_bench_history(_placement_doc(), str(history), git_sha="abc")
        bench = _write_bench(tmp_path, _placement_doc())
        out = tmp_path / "artifacts"
        targets = write_report_artifacts([bench], str(out),
                                         baseline_dir=str(history))
        report = json.loads((out / "report.json").read_text())
        assert report["baseline"]["benches"]["placement"]["comparable"]
        manifest = json.loads((out / "report.manifest.json").read_text())
        assert manifest["command"] == "report"


class TestFailSoftIngest:
    """Satellite: corrupt/truncated BENCH files degrade to warnings."""

    def test_truncated_bench_json_degrades_to_warning(self, tmp_path):
        full = json.dumps(_placement_doc())
        path = tmp_path / "BENCH_placement.json"
        path.write_text(full[:len(full) // 2])  # truncated mid-stream
        report, markdown = render_report([str(path)])
        assert validate_report(report) == []
        assert any("not valid JSON" in warning
                   for warning in report["warnings"])
        row = next(line for line in markdown.splitlines()
                   if line.startswith("| placement |"))
        assert "| invalid |" in row

    def test_corrupt_bench_json_degrades_to_warning(self, tmp_path):
        path = tmp_path / "BENCH_placement.json"
        path.write_text("{\"benchmark\": \x00garbage")
        report, _ = render_report([str(path)])
        assert validate_report(report) == []
        assert any("not valid JSON" in warning
                   for warning in report["warnings"])

    def test_truncated_bench_never_reaches_the_baseline_gates(self,
                                                              tmp_path):
        history = tmp_path / "history"
        append_bench_history(_placement_doc(), str(history), git_sha="abc")
        full = json.dumps(_placement_doc())
        path = tmp_path / "BENCH_placement.json"
        path.write_text(full[: len(full) // 2])
        report, _ = render_report([str(path)], baseline_dir=str(history))
        assert "placement" not in report["baseline"]["benches"]
        assert not any("regression" in warning
                       for warning in report["warnings"])

    def test_corrupt_history_line_degrades_to_warning(self, tmp_path):
        history = tmp_path / "history"
        history.mkdir()
        (history / "placement.jsonl").write_text("{broken\n")
        bench = _write_bench(tmp_path, _placement_doc())
        report, _ = render_report([bench], baseline_dir=str(history))
        assert any("not valid JSON" in warning
                   for warning in report["warnings"])
        entry = report["baseline"]["benches"]["placement"]
        assert entry["comparable"] is False


class TestGridsSection:
    def test_grid_tables_fold_into_report_and_markdown(self, tmp_path):
        tables = {"headline": "headline table bytes",
                  "figure4": "figure4 table bytes"}
        report, markdown = render_report([], grid_tables=tables,
                                         grid_profile="quick")
        assert validate_report(report) == []
        assert report["grids"]["profile"] == "quick"
        assert report["grids"]["tables"] == tables
        assert "## Grids" in markdown
        assert "### figure4" in markdown
        assert "figure4 table bytes" in markdown

    def test_no_grids_no_section(self):
        report, markdown = render_report([])
        assert "grids" not in report
        assert "## Grids" not in markdown


class TestCheckedInHistory:
    """The checked-in seed records stay loadable and comparable."""

    def test_checked_in_history_matches_checked_in_benches(self):
        from repro.obs.history import (bench_config_hash, latest_comparable,
                                       load_history)

        history_dir = os.path.join(REPO_ROOT, "benchmarks", "history")
        records, problems = load_history(history_dir)
        assert problems == []
        assert sorted(records) == ["placement"]
        with open(CHECKED_IN_PLACEMENT, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        baseline = latest_comparable(records["placement"],
                                     bench_config_hash(document))
        assert baseline is not None
        assert baseline.config_hash.startswith("ab3a61a3cf68")
