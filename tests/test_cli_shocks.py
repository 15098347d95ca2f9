"""Tests for the CLI's shock surface (shocks command, --shock/--class)."""

import argparse
import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import _query_class_spec, _shock_spec, build_parser, main


ARGS = ["shocks", "--schemes", "econ-cheap", "--n-tenants", "6",
        "--queries", "30", "--interarrival", "5.0",
        "--settlement-period", "25.0"]


class TestParser:
    def test_shocks_defaults(self):
        args = build_parser().parse_args(["shocks"])
        assert args.command == "shocks"
        assert args.schemes == "econ-cheap"
        assert args.n_tenants == 50
        assert args.queries == 400
        assert args.shock == []
        assert args.query_class == []
        assert args.strict_maintenance is False
        assert args.shards == 1
        assert args.cache_partitions == 1
        assert args.placement == "hash"

    @pytest.mark.parametrize("flag,value", [
        ("--shock", "boom@0.5"),
        ("--shock", "price@0.5"),
        ("--shock", "invalidate@x"),
        ("--class", "pricing:3"),
        ("--class", "pricing:3:q999_nonsense"),
    ])
    def test_malformed_grammar_productions_exit_2(self, capsys, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["shocks", flag, value])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}:" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command,flag,value", [
        ("shocks", "--shock", "price@0.5:0.1:nan"),
        ("shocks", "--shock", "price@0.5:nan:2"),
        ("shocks", "--shock", "price@0.5:0.1:inf"),
        ("shocks", "--shock", "squeeze@0.5:inf:0.5"),
        ("shocks", "--shock", "squeeze@nan:0.1:0.5"),
        ("shocks", "--class", "x:nan:q1_pricing_summary"),
        ("shocks", "--class", "x:inf:q1_pricing_summary"),
        ("tenants", "--shock", "price@0.5:0.1:nan"),
    ])
    def test_non_finite_numbers_exit_2(self, capsys, command, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--n-tenants", "4", "--queries", "10",
                  flag, value])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1
        assert f"argument {flag}:" in errors[0]
        assert "Traceback" not in captured.err

    def test_scenario_and_tenants_accept_shocks_too(self):
        args = build_parser().parse_args(
            ["scenario", "--shock", "invalidate@0.5:index",
             "--strict-maintenance"])
        assert len(args.shock) == 1
        assert args.strict_maintenance is True
        args = build_parser().parse_args(
            ["tenants", "--shock", "price@0.5:0.2:3.0"])
        assert len(args.shock) == 1


class TestShocksCommand:
    def test_prints_the_resilience_table_and_audit(self, capsys):
        assert main(ARGS) == 0
        output = capsys.readouterr().out
        assert "Scheme resilience under market shocks" in output
        assert "cost+shocks" in output
        assert "econ-cheap: conservation: exact" in output
        assert "wallets audited" in output
        assert "VIOLATED" not in output

    def test_all_schemes_includes_the_auditless_bypass(self, capsys):
        assert main(["shocks", "--schemes", "all", "--n-tenants", "4",
                     "--queries", "20", "--interarrival", "5.0"]) == 0
        output = capsys.readouterr().out
        assert "bypass: conservation: n/a (no economy)" in output
        assert "econ-col: conservation: exact" in output

    def test_unknown_scheme_reports_cleanly(self, capsys):
        assert main(["shocks", "--schemes", "econ-physical"]) == 2
        captured = capsys.readouterr()
        assert "unknown scheme" in captured.err
        assert "Traceback" not in captured.err

    def test_jobs_output_is_byte_identical(self, capsys):
        args = ["shocks", "--schemes", "econ-col,econ-cheap",
                "--n-tenants", "5", "--queries", "24",
                "--interarrival", "5.0"]
        assert main(args) == 0
        sequential = capsys.readouterr().out
        assert main(args + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == sequential

    def test_extra_shock_and_class_compose_onto_the_grammar(self, capsys):
        assert main(ARGS + ["--shock", "squeeze@0.8:0.1:0.5",
                            "--class", "extra:1:q6_forecast_revenue"]) == 0
        output = capsys.readouterr().out
        assert "econ-cheap: conservation: exact" in output

    def test_zero_weight_class_warns_on_stderr(self, capsys):
        assert main(ARGS + ["--class", "ghost:0:q6_forecast_revenue"]) == 0
        captured = capsys.readouterr()
        assert "warning:" in captured.err
        assert "degenerate grammar" in captured.err
        assert "ghost" in captured.err
        assert "econ-cheap: conservation: exact" in captured.out

    def test_strict_maintenance_flag_flows_through(self, capsys):
        assert main(ARGS + ["--strict-maintenance"]) == 0
        output = capsys.readouterr().out
        assert "econ-cheap: conservation: exact" in output


class TestShocksScalingModes:
    def test_sharded_rerun_is_audited_byte_identical(self, capsys):
        assert main(ARGS + ["--shards", "2"]) == 0
        output = capsys.readouterr().out
        assert "econ-cheap: --shards 2 byte-identical under shocks" in output

    def test_partitioned_rerun_audits_every_barrier(self, capsys):
        assert main(ARGS + ["--cache-partitions", "2"]) == 0
        output = capsys.readouterr().out
        assert "conservation: exact across 2 partitions" in output
        assert "Cache partitions - econ-cheap x 2 partitions" in output

    def test_adaptive_placement_composes_with_shocks(self, capsys):
        assert main(ARGS + ["--cache-partitions", "2",
                            "--placement", "adaptive"]) == 0
        output = capsys.readouterr().out
        assert "conservation: exact across 2 partitions" in output
        assert "Placement - adaptive (handoffs:" in output

    def test_batched_planning_composes_with_shocks(self, capsys):
        assert main(ARGS + ["--planning", "batched"]) == 0
        assert ("econ-cheap: conservation: exact"
                in capsys.readouterr().out)

    def test_bypass_is_skipped_from_the_partitioned_rerun(self, capsys):
        assert main(["shocks", "--schemes", "bypass,econ-cheap",
                     "--n-tenants", "4", "--queries", "20",
                     "--interarrival", "5.0",
                     "--cache-partitions", "2"]) == 0
        output = capsys.readouterr().out
        assert "bypass: partitioned rerun skipped (no economy)" in output
        assert "conservation: exact across 2 partitions" in output

    def test_partitions_and_shards_are_exclusive(self, capsys):
        assert main(ARGS + ["--cache-partitions", "2", "--shards", "2"]) == 2
        captured = capsys.readouterr()
        assert "alternative scaling modes" in captured.err
        assert "Traceback" not in captured.err

    def test_adaptive_requires_partitions(self, capsys):
        assert main(ARGS + ["--placement", "adaptive"]) == 2
        captured = capsys.readouterr()
        assert "needs --cache-partitions" in captured.err
        assert "Traceback" not in captured.err


class TestScenarioShocks:
    def test_shocks_arrival_family_reports_the_audit(self, capsys):
        assert main(["scenario", "--arrival", "shocks", "--queries", "40",
                     "--interarrival", "4.0",
                     "--settlement-period", "40.0"]) == 0
        output = capsys.readouterr().out
        assert "Scenario - shocks x econ-cheap" in output
        assert "shock events" in output
        assert "conservation" in output
        assert "exact" in output

    def test_extra_shock_composes_onto_any_scenario(self, capsys):
        assert main(["scenario", "--arrival", "bursty", "--queries", "30",
                     "--interarrival", "2.0",
                     "--shock", "invalidate@0.5"]) == 0
        output = capsys.readouterr().out
        assert "shock events" in output

    def test_malformed_scenario_shock_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", "--shock", "price@0.5:0.1:0"])
        assert excinfo.value.code == 2
        assert "argument --shock:" in capsys.readouterr().err


class TestTenantsShocks:
    def test_tenants_accepts_shocks_and_stays_shard_identical(self, capsys):
        args = ["tenants", "--n-tenants", "8", "--queries", "30",
                "--schemes", "econ-cheap", "--top", "3",
                "--shock", "invalidate@0.5:index",
                "--shock", "price@0.6:0.2:2.0"]
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert "Tenants - econ-cheap x 8 tenants" in plain
        assert main(args + ["--shards", "2"]) == 0
        assert capsys.readouterr().out == plain


#: Number-ish fragments the DSL parsers meet: plain, signed, exponent,
#: non-finite, and junk.
_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "1e400",
                     "-1e400", "0", "-0.0", "0.5", "1", "", "x", "1_0"]),
)
_KINDS = st.sampled_from(["price", "squeeze", "invalidate", "boom", ""])
_TEMPLATES = st.sampled_from(["q1_pricing_summary", "q999_nonsense",
                              "q1_pricing_summary+q1_pricing_summary", ""])


def _numbers_of(spec):
    return [value for value in dataclasses.astuple(spec)
            if isinstance(value, float)]


class TestDslNumbersAreFinite:
    """Any ``--shock``/``--class`` text either parses to a spec whose
    numbers are all finite or is rejected as an argparse type error."""

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(
        st.text(max_size=30),
        st.builds(lambda kind, parts: kind + "@" + ":".join(parts),
                  _KINDS, st.lists(_NUMBERS, min_size=1, max_size=4)),
    ))
    def test_shock_spec(self, text):
        try:
            spec = _shock_spec(text)
        except argparse.ArgumentTypeError:
            return
        assert all(math.isfinite(value) for value in _numbers_of(spec))

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(
        st.text(max_size=30),
        st.builds(lambda name, weight, templates:
                  f"{name}:{weight}:{templates}",
                  st.sampled_from(["x", "", "a:b"]), _NUMBERS, _TEMPLATES),
    ))
    def test_query_class_spec(self, text):
        try:
            spec = _query_class_spec(text)
        except argparse.ArgumentTypeError:
            return
        assert math.isfinite(spec.weight)
