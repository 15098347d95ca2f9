"""CLI observability tests: --version, --trace validation, report command."""

import json

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


#: Every observed command shape, each run with --trace and --metrics.
TOGETHER_SHAPES = {
    "tenants": TENANTS_ARGS,
    "tenants-jobs2": ["tenants", "--n-tenants", "4", "--queries", "30",
                      "--schemes", "econ-cheap,econ-fast",
                      "--settlement-period", "20", "--jobs", "2"],
    "tenants-partitioned": ["tenants", "--n-tenants", "4", "--queries", "30",
                            "--schemes", "econ-cheap",
                            "--settlement-period", "20",
                            "--cache-partitions", "2"],
    "shocks": ["shocks", "--schemes", "econ-cheap", "--n-tenants", "4",
               "--queries", "30", "--settlement-period", "60"],
    "scenario": ["scenario", "--queries", "30", "--settlement-period", "20"],
}


class TestTraceAndMetricsTogether:
    @pytest.mark.parametrize("argv", list(TOGETHER_SHAPES.values()),
                             ids=list(TOGETHER_SHAPES))
    def test_both_artifacts_match_the_single_flag_runs(self, tmp_path,
                                                       capsys, argv):
        """One recorder writes both artifacts: the tables stay those of
        the unobserved run, and each artifact is byte-identical to the
        one its flag writes alone."""
        code, plain, _ = _run(capsys, argv)
        assert code == 0
        alone = {}
        for flag in ("--trace", "--metrics"):
            path = tmp_path / f"alone{flag}.jsonl"
            code, observed, _ = _run(capsys, argv + [flag, str(path)])
            assert code == 0
            assert observed == plain
            alone[flag] = path.read_bytes()
        trace_path, metrics_path = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        code, observed, _ = _run(capsys, argv + [
            "--trace", str(trace_path), "--metrics", str(metrics_path)])
        assert code == 0
        assert observed == plain
        assert trace_path.read_bytes() == alone["--trace"]
        assert metrics_path.read_bytes() == alone["--metrics"]


class TestReportCommand:
    def test_report_over_trace_and_metrics_artifacts(self, tmp_path,
                                                     capsys):
        trace, metrics = tmp_path / "t.jsonl", tmp_path / "m.jsonl"
        code, _, _ = _run(capsys, TENANTS_ARGS + [
            "--trace", str(trace), "--metrics", str(metrics)])
        assert code == 0
        out_dir = tmp_path / "artifacts"
        code, out, _ = _run(capsys, ["report", str(trace), str(metrics),
                                     "--out", str(out_dir)])
        assert code == 0
        assert "peak live tenants" in out and "peak RSS" in out
        report = json.loads((out_dir / "report.json").read_text())
        assert report["warnings"] == []
        assert [entry["artifact"] for entry in report["traces"]] == [
            "trace", "metrics"]
        # The peak RSS comes from each artifact's run manifest.
        for entry, path in zip(report["traces"], (trace, metrics)):
            manifest = json.loads(
                (tmp_path / (path.name + ".manifest.json")).read_text())
            assert entry["peak_rss_bytes"] == manifest["peak_rss_bytes"] > 0
        assert (out_dir / "report.md").read_text() in out
        assert (out_dir / "report.manifest.json").exists()

    def test_report_refuses_overwrite_without_force(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        code, _, _ = _run(capsys, TENANTS_ARGS + ["--trace", str(trace)])
        assert code == 0
        out_dir = tmp_path / "artifacts"
        code, _, _ = _run(capsys, ["report", str(trace), "--out",
                                   str(out_dir)])
        assert code == 0
        code, _, err = _run(capsys, ["report", str(trace), "--out",
                                     str(out_dir)])
        assert code == 2
        assert "--force" in err
        code, _, _ = _run(capsys, ["report", str(trace), "--out",
                                   str(out_dir), "--force"])
        assert code == 0
