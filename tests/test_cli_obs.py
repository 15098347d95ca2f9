"""CLI observability tests: --version, --trace validation, report command."""

import json
import os

import pytest

import repro
from repro.cli import main

TENANTS_ARGS = ["tenants", "--n-tenants", "4", "--queries", "30",
                "--schemes", "econ-cheap", "--settlement-period", "60"]


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVersion:
    def test_version_flag_prints_package_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"

    def test_version_matches_manifest_stamp(self):
        from repro.obs import build_manifest

        assert build_manifest("tenants").version == repro.__version__


class TestTraceValidation:
    def test_missing_parent_directory_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(TENANTS_ARGS + ["--trace", "/nonexistent-dir/t.jsonl"])
        assert excinfo.value.code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_existing_file_without_force_exits_2(self, tmp_path, capsys):
        target = tmp_path / "t.jsonl"
        target.write_text("")
        with pytest.raises(SystemExit) as excinfo:
            main(TENANTS_ARGS + ["--trace", str(target)])
        assert excinfo.value.code == 2
        assert "--force" in capsys.readouterr().err

    def test_force_overwrites(self, tmp_path, capsys):
        target = tmp_path / "t.jsonl"
        target.write_text("stale")
        code, out, _ = _run(capsys, TENANTS_ARGS
                            + ["--trace", str(target), "--force"])
        assert code == 0
        assert target.read_text() != "stale"


class TestTracedRunsAreByteIdentical:
    def test_tenants_sharded(self, tmp_path, capsys):
        """The acceptance pin: tenants --shards 2 --trace vs untraced."""
        argv = TENANTS_ARGS + ["--shards", "2"]
        code, untraced, _ = _run(capsys, argv)
        assert code == 0
        trace_path = tmp_path / "t.jsonl"
        code, traced, _ = _run(capsys, argv + ["--trace", str(trace_path)])
        assert code == 0
        assert traced == untraced
        lines = trace_path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "trace_header"
        assert header["sources"] == ["shard0", "shard1"]
        manifest = json.loads(
            (tmp_path / "t.jsonl.manifest.json").read_text())
        assert manifest["version"] == repro.__version__
        assert manifest["shards"] == 2
        assert manifest["command"] == "tenants"
        assert set(manifest["phase_timings_s"]) == {"run", "emit_trace"}

    def test_tenants_partitioned_adaptive(self, tmp_path, capsys):
        argv = TENANTS_ARGS + ["--cache-partitions", "2",
                               "--placement", "adaptive"]
        code, untraced, _ = _run(capsys, argv)
        assert code == 0
        trace_path = tmp_path / "t.jsonl"
        code, traced, _ = _run(capsys, argv + ["--trace", str(trace_path)])
        assert code == 0
        assert traced == untraced
        assert trace_path.exists()

    def test_scenario(self, tmp_path, capsys):
        argv = ["scenario", "--queries", "30", "--settlement-period", "60"]
        code, untraced, _ = _run(capsys, argv)
        assert code == 0
        trace_path = tmp_path / "s.jsonl"
        code, traced, _ = _run(capsys, argv + ["--trace", str(trace_path)])
        assert code == 0
        assert traced == untraced
        manifest = json.loads(
            (tmp_path / "s.jsonl.manifest.json").read_text())
        assert manifest["command"] == "scenario"
        assert manifest["schemes"] == ["econ-cheap"]


class TestMetricsValidation:
    def test_profile_without_a_sink_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(TENANTS_ARGS + ["--profile"])
        assert excinfo.value.code == 2
        assert "--trace or --metrics" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        TENANTS_ARGS,
        ["shocks", "--n-tenants", "4", "--queries", "20",
         "--schemes", "econ-cheap"],
        ["scenario", "--queries", "20"],
        ["headline"],
    ], ids=["tenants", "shocks", "scenario", "headline"])
    def test_force_without_a_sink_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--force"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "argument --force: requires --trace or --metrics" in err

    def test_trace_and_metrics_may_not_share_a_path(self, tmp_path, capsys):
        target = str(tmp_path / "same.jsonl")
        with pytest.raises(SystemExit) as excinfo:
            main(TENANTS_ARGS + ["--trace", target, "--metrics", target])
        assert excinfo.value.code == 2
        assert "different" in capsys.readouterr().err

    def test_metrics_existing_file_without_force_exits_2(self, tmp_path,
                                                         capsys):
        target = tmp_path / "m.jsonl"
        target.write_text("")
        with pytest.raises(SystemExit) as excinfo:
            main(TENANTS_ARGS + ["--metrics", str(target)])
        assert excinfo.value.code == 2
        assert "--force" in capsys.readouterr().err


class TestMetricsRunsAreByteIdentical:
    def test_tenants_sharded_metrics(self, tmp_path, capsys):
        """The acceptance pin: tenants --shards 2 --metrics vs plain."""
        argv = TENANTS_ARGS + ["--shards", "2"]
        code, plain, _ = _run(capsys, argv)
        assert code == 0
        metrics_path = tmp_path / "m.jsonl"
        code, observed, _ = _run(capsys,
                                 argv + ["--metrics", str(metrics_path)])
        assert code == 0
        assert observed == plain
        lines = metrics_path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "metrics_header"
        assert header["sources"] == ["shard0", "shard1"]
        samples = [json.loads(line) for line in lines[1:]
                   if json.loads(line)["kind"] == "sample"]
        assert samples and all("counters" in s for s in samples)
        manifest = json.loads(
            (tmp_path / "m.jsonl.manifest.json").read_text())
        assert manifest["command"] == "tenants"
        assert manifest["shards"] == 2
        assert manifest["metrics_samples"] == len(samples)
        assert set(manifest["phase_timings_s"]) == {"run", "emit_metrics"}

    def test_trace_metrics_and_profile_together(self, tmp_path, capsys):
        argv = TENANTS_ARGS[:]
        code, plain, _ = _run(capsys, argv)
        assert code == 0
        trace_path = tmp_path / "t.jsonl"
        metrics_path = tmp_path / "m.jsonl"
        code, observed, _ = _run(
            capsys, argv + ["--trace", str(trace_path),
                            "--metrics", str(metrics_path), "--profile"])
        assert code == 0
        assert observed == plain
        for path in (trace_path, metrics_path):
            manifest = json.loads(
                (tmp_path / (path.name + ".manifest.json")).read_text())
            hotspots = manifest["profile_top"]
            assert hotspots and all(
                set(spot) == {"function", "cumtime_s", "tottime_s", "calls"}
                for spot in hotspots)

    def test_shocks_metrics(self, tmp_path, capsys):
        argv = ["shocks", "--schemes", "econ-cheap", "--n-tenants", "4",
                "--queries", "30", "--settlement-period", "60"]
        code, plain, _ = _run(capsys, argv)
        assert code == 0
        metrics_path = tmp_path / "m.jsonl"
        code, observed, _ = _run(capsys,
                                 argv + ["--metrics", str(metrics_path)])
        assert code == 0
        assert observed == plain
        manifest = json.loads(
            (tmp_path / "m.jsonl.manifest.json").read_text())
        assert manifest["command"] == "shocks"

    def test_headline_trace(self, tmp_path, capsys):
        argv = ["headline", "--profile", "quick"]
        code, plain, _ = _run(capsys, argv)
        assert code == 0
        trace_path = tmp_path / "t.jsonl"
        code, traced, _ = _run(capsys, argv + ["--trace", str(trace_path)])
        assert code == 0
        assert traced == plain
        header = json.loads(trace_path.read_text().splitlines()[0])
        assert header["kind"] == "trace_header"
        # One source per traced grid cell, tagged scheme@interval.
        assert all("@" in source for source in header["sources"])
        manifest = json.loads(
            (tmp_path / "t.jsonl.manifest.json").read_text())
        assert manifest["command"] == "headline"
        assert manifest["schemes"]  # the profile's scheme set


class TestReportCommand:
    def test_report_over_checked_in_bench_files(self, tmp_path, capsys):
        repo_root = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))
        bench = [os.path.join(repo_root, "BENCH_placement.json")]
        out_dir = tmp_path / "artifacts"
        code, out, _ = _run(capsys, ["report", "--out", str(out_dir)] + bench)
        assert code == 0
        assert "| placement | BENCH_placement.json | ok |" in out
        report = json.loads((out_dir / "report.json").read_text())
        assert report["warnings"] == []
        assert (out_dir / "report.md").exists()
        assert (out_dir / "report.manifest.json").exists()

    def test_report_baseline_renders_delta_column(self, tmp_path, capsys):
        from repro.obs.history import append_bench_history

        doc = {
            "benchmark": "placement", "python": "3.11.0", "seed": 0,
            "scheme": "econ-cheap", "tenant_count": 10, "query_count": 50,
            "partitions": 2, "handoff_threshold": 0.0,
            "runs": [{"placement": "adaptive", "handoffs": 4,
                      "remote_hit_rate": 0.2,
                      "remote_surcharge_dollars": 1.0}],
        }
        history = tmp_path / "history"
        append_bench_history(doc, str(history), git_sha="abc")
        bench = tmp_path / "BENCH_placement.json"
        bench.write_text(json.dumps(doc))
        out_dir = tmp_path / "artifacts"
        code, out, _ = _run(capsys, ["report", str(bench),
                                     "--baseline", str(history),
                                     "--out", str(out_dir)])
        assert code == 0
        assert "| delta | perf |" in out
        assert "## Baseline deltas" in out

    def test_report_warns_on_a_retired_bench_kind(self, tmp_path, capsys):
        """A leftover per-mode bench file (its throughput is timed by the
        end-to-end benchmark now) renders a warning, not a failure."""
        bench = tmp_path / "BENCH_sharding.json"
        bench.write_text(json.dumps({
            "benchmark": "sharding", "python": "3.11.0", "seed": 0,
            "runs": [{"shards": 2, "queries_per_s": 1600.0}]}))
        code, out, err = _run(capsys, ["report", str(bench),
                                       "--out", str(tmp_path)])
        assert (code, err) == (0, "")
        assert "| sharding | BENCH_sharding.json | invalid |" in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert f"{bench}: unknown benchmark kind 'sharding'" in \
            report["warnings"]

    def test_report_missing_baseline_dir_exits_2(self, tmp_path, capsys):
        code, _, err = _run(capsys, ["report",
                                     "--baseline", str(tmp_path / "nope"),
                                     "--out", str(tmp_path / "a")])
        assert code == 2
        assert "does not exist" in err

    def test_report_inverted_gates_exit_2(self, tmp_path, capsys):
        history = tmp_path / "history"
        history.mkdir()
        code, _, err = _run(capsys, ["report", "--baseline", str(history),
                                     "--warn-slowdown", "0.5",
                                     "--fail-slowdown", "0.1",
                                     "--out", str(tmp_path / "a")])
        assert code == 2
        assert "warn" in err

    def test_report_refuses_overwrite_without_force(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        code, _, _ = _run(capsys, ["report", "--out", str(out_dir)])
        assert code == 0
        code, _, err = _run(capsys, ["report", "--out", str(out_dir)])
        assert code == 2
        assert "--force" in err
        code, _, _ = _run(capsys,
                          ["report", "--out", str(out_dir), "--force"])
        assert code == 0
