"""Tests for the command-line interface."""

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.experiments import runner


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_commands_accept_profiles(self):
        args = build_parser().parse_args(["figure4", "--profile", "paper"])
        assert args.command == "figure4"
        assert args.profile == "paper"

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure4", "--profile", "huge"])

    def test_ablation_requires_a_known_sweep(self):
        args = build_parser().parse_args(["ablation", "regret", "--queries", "50"])
        assert args.which == "regret"
        assert args.queries == 50
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ablation", "unknown"])

    def test_figure_commands_accept_jobs(self):
        args = build_parser().parse_args(["figure4", "--jobs", "4"])
        assert args.jobs == 4
        args = build_parser().parse_args(["headline"])
        assert args.jobs == 1

    def test_scenario_defaults_and_choices(self):
        args = build_parser().parse_args(["scenario"])
        assert args.arrival == "diurnal"
        assert args.scheme == "econ-cheap"
        args = build_parser().parse_args(
            ["scenario", "--arrival", "bursty", "--scheme", "bypass",
             "--queries", "30", "--interarrival", "2.5"])
        assert args.arrival == "bursty"
        assert args.interarrival == 2.5
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario", "--arrival", "tsunami"])


class TestCommands:
    def test_describe_prints_the_schema(self, capsys):
        assert main(["describe"]) == 0
        output = capsys.readouterr().out
        assert "lineitem" in output
        assert "candidate indexes" in output

    def test_ablation_command_prints_a_table(self, capsys):
        assert main(["ablation", "bypass-budget", "--queries", "30"]) == 0
        output = capsys.readouterr().out
        assert "operating_cost" in output

    def test_figure_command_with_a_tiny_profile(self, capsys, monkeypatch):
        # Shrink the quick profile so the CLI path stays fast in unit tests.
        from repro.experiments.config import ExperimentProfile

        tiny = ExperimentProfile(name="cli-tiny", query_count=30,
                                 interarrival_times_s=(1.0,))
        monkeypatch.setitem(cli._PROFILES, "quick", tiny)
        runner._GRID_CACHE.clear()
        assert main(["figure4", "--profile", "quick"]) == 0
        assert "Figure 4" in capsys.readouterr().out
        assert main(["figure5", "--profile", "quick"]) == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_parallel_figure_output_matches_sequential(self, capsys, monkeypatch):
        from repro.experiments.config import ExperimentProfile

        tiny = ExperimentProfile(name="cli-tiny-jobs", query_count=20,
                                 interarrival_times_s=(1.0,),
                                 schemes=("bypass", "econ-col"))
        monkeypatch.setitem(cli._PROFILES, "quick", tiny)
        runner._GRID_CACHE.clear()
        assert main(["figure4", "--profile", "quick"]) == 0
        sequential = capsys.readouterr().out
        runner._GRID_CACHE.clear()
        assert main(["figure4", "--profile", "quick", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == sequential

    def test_invalid_values_report_cleanly(self, capsys):
        # --jobs is validated by argparse itself: exit code 2 with an
        # "argument --jobs: ..." line, no traceback.
        with pytest.raises(SystemExit) as excinfo:
            main(["figure4", "--jobs", "0"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "argument --jobs: must be >= 1, got 0" in captured.err
        assert "Traceback" not in captured.err
        assert main(["scenario", "--queries", "0"]) == 2
        assert "query_count must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--jobs"])
    @pytest.mark.parametrize("value", ["0", "-2", "four"])
    def test_tenants_rejects_invalid_worker_counts(self, capsys, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["tenants", flag, value])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}:" in captured.err
        assert "Traceback" not in captured.err

    def test_scenario_command_prints_a_summary(self, capsys):
        assert main(["scenario", "--arrival", "bursty", "--scheme", "bypass",
                     "--queries", "25", "--interarrival", "2.0"]) == 0
        output = capsys.readouterr().out
        assert "Scenario - bursty x bypass" in output
        assert "phase changes" in output
        assert "operating_cost" in output


class TestPartitionedTenantsCli:
    ARGS = ["tenants", "--n-tenants", "10", "--queries", "40",
            "--schemes", "econ-cheap", "--top", "3",
            "--settlement-period", "10.0"]

    def test_partitioned_report_sections(self, capsys):
        assert main(self.ARGS + ["--cache-partitions", "2"]) == 0
        output = capsys.readouterr().out
        assert "Tenants - econ-cheap x 10 tenants" in output
        assert "Cache partitions - econ-cheap x 2 partitions" in output
        assert "conservation: exact" in output
        assert "Divergence vs global cache" in output
        assert "remote_hits" in output

    @pytest.mark.parametrize("value", ["0", "-2", "four"])
    def test_invalid_partition_counts_exit_2(self, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["tenants", "--cache-partitions", value])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "argument --cache-partitions:" in captured.err
        assert "Traceback" not in captured.err

    def test_imbalance_warning_on_stderr(self, capsys):
        """One ``warning:`` line however many cells trigger it, whether
        the cells run here or in the ``--jobs`` pool."""
        for schemes in ("econ-cheap", "econ-cheap,econ-fast"):
            for jobs in ("1", "2"):
                assert main(["tenants", "--n-tenants", "6", "--queries", "16",
                             "--schemes", schemes, "--jobs", jobs,
                             "--cache-partitions", "16"]) == 0
                captured = capsys.readouterr()
                assert captured.err.count("warning:") == 1
                assert "serve no queries" in captured.err
                for scheme in schemes.split(","):
                    assert (f"Cache partitions - {scheme} x 16 partitions"
                            in captured.out)

    def test_bypass_scheme_reports_cleanly(self, capsys, monkeypatch):
        """Refused before any cell runs, with one plain error line, also
        when an economic scheme comes first."""
        monkeypatch.setattr(cli, "_partition_runner", None)
        for schemes in ("bypass", "econ-cheap,bypass"):
            assert main(["tenants", "--schemes", schemes, "--queries", "12",
                         "--n-tenants", "4", "--cache-partitions", "2"]) == 2
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [
                "error: --cache-partitions needs an economy, and the bypass "
                "scheme has none (run it with --cache-partitions 1)"]
            assert "cell config" not in captured.err
            assert captured.out == ""


class TestPlacementCli:
    ARGS = ["tenants", "--n-tenants", "10", "--queries", "40",
            "--schemes", "econ-cheap", "--top", "3",
            "--settlement-period", "10.0", "--cache-partitions", "2"]

    def test_hash_placement_is_byte_identical_to_default(self, capsys):
        """``--placement hash`` (the PR 4 path) must not change a byte."""
        assert main(self.ARGS) == 0
        default = capsys.readouterr().out
        assert main(self.ARGS + ["--placement", "hash"]) == 0
        assert capsys.readouterr().out == default
        assert "Placement - adaptive" not in default

    @pytest.mark.parametrize("command", ["tenants", "shocks"])
    @pytest.mark.parametrize("layout", [
        ["--cache-partitions", "2", "--placement", "hash"],
        ["--cache-partitions", "2"],
        [],
    ], ids=["hash", "default-placement", "no-partitions"])
    def test_handoff_threshold_without_adaptive_exits_2(self, capsys,
                                                        command, layout):
        """The threshold only steers adaptive handoffs; anywhere else it
        would be silently ignored, so it is refused."""
        argv = [command, "--n-tenants", "4", "--queries", "12",
                "--schemes", "econ-cheap", "--handoff-threshold", "2.5"]
        assert main(argv + layout) == 2
        captured = capsys.readouterr()
        assert captured.err.count("error:") == 1
        assert "--placement adaptive" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_adaptive_placement_adds_the_report_section(self, capsys):
        assert main(self.ARGS + ["--placement", "adaptive"]) == 0
        output = capsys.readouterr().out
        assert "Placement - adaptive (handoffs:" in output
        assert "conservation: exact" in output
        assert "delta_bytes" in output

    def test_unknown_placement_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self.ARGS + ["--placement", "sticky"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "argument --placement:" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("value", ["-1", "-0.5", "much", "nan"])
    def test_invalid_handoff_threshold_exits_2(self, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            main(self.ARGS + ["--handoff-threshold", value])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "argument --handoff-threshold:" in captured.err
        assert "Traceback" not in captured.err

    def test_adaptive_requires_partitions(self, capsys):
        assert main(["tenants", "--queries", "12", "--n-tenants", "4",
                     "--placement", "adaptive"]) == 2
        captured = capsys.readouterr()
        assert "needs --cache-partitions" in captured.err
        assert "Traceback" not in captured.err
