"""The scalar pipeline as test oracle for the batched grid and scenario runs.

The figure grids and the ``scenario`` command always plan in batches. The
scalar per-query pipeline stays as the library default, and here it is
the reference: every grid cell and every scenario table must equal the
same run built directly with ``EconomyConfig(planning="scalar")``.
"""

import re

import pytest

from repro import cli
from repro.economy.engine import PLANNING_SCALAR, EconomyConfig
from repro.experiments.config import QUICK_PROFILE
from repro.experiments.figure4 import figure4_table
from repro.experiments.figure5 import figure5_table
from repro.experiments.headline import headline_table
from repro.experiments.runner import (
    CellResult,
    ExperimentGrid,
    build_system,
    run_grid,
)
from repro.policies.economic import EconomicSchemeConfig
from repro.simulator.simulation import CloudSimulation
from repro.workload.generator import WorkloadGenerator, WorkloadSpec
from repro.workload.scenarios import SCENARIO_NAMES

#: Flags that put settlements, failure checks, strict maintenance and
#: shocks into every scenario run, so the batched planner meets them all.
SCENARIO_FLAGS = ["--queries", "150", "--settlement-period", "120",
                  "--failure-check-period", "30", "--strict-maintenance",
                  "--shock", "invalidate@0.5:index",
                  "--shock", "price@0.3:0.2:2"]


def scalar_grid(profile):
    """The profile's grid, every cell built directly on scalar planning."""
    system = build_system(profile)
    cells = []
    for interarrival in profile.interarrival_times_s:
        workload = WorkloadGenerator(WorkloadSpec(
            query_count=profile.query_count, interarrival_s=interarrival,
            seed=profile.seed)).generate()
        for name in profile.schemes:
            scheme = system.scheme(name, economic_config=EconomicSchemeConfig(
                economy=EconomyConfig(planning=PLANNING_SCALAR)))
            assert not scheme.plans_in_batches
            summary = CloudSimulation(scheme).run(workload).summary
            cells.append(CellResult(name, interarrival, summary))
    return ExperimentGrid(profile, cells)


def spy_runs(monkeypatch):
    """Record, per simulation run, whether its scheme plans in batches
    (the bypass baseline has no economy and never does) and its summary."""
    runs = []
    run = CloudSimulation.run

    def spy(self, *args, **kwargs):
        result = run(self, *args, **kwargs)
        scheme = self.scheme
        runs.append((scheme.plans_in_batches or scheme.name == "bypass",
                     result.summary))
        return result

    monkeypatch.setattr(CloudSimulation, "run", spy)
    return runs


class TestGridOracle:
    def test_batched_grid_equals_scalar_cells(self, monkeypatch):
        runs = spy_runs(monkeypatch)
        grid = run_grid(QUICK_PROFILE, use_cache=False)
        assert runs and all(batched for batched, _ in runs)
        oracle = scalar_grid(QUICK_PROFILE)
        assert grid.cells == oracle.cells
        for table in (figure4_table, figure5_table, headline_table):
            assert table(grid=grid) == table(grid=oracle)


class TestScenarioOracle:
    @pytest.mark.parametrize("arrival", SCENARIO_NAMES)
    def test_batched_scenario_equals_scalar(self, arrival, capsys,
                                            monkeypatch):
        runs = spy_runs(monkeypatch)
        argv = ["scenario", "--arrival", arrival] + SCENARIO_FLAGS
        assert cli.main(argv) == 0
        batched = capsys.readouterr().out
        # The same command with the scheme built on scalar planning.
        monkeypatch.setattr(cli, "PLANNING_BATCHED", PLANNING_SCALAR)
        assert cli.main(argv) == 0
        scalar = capsys.readouterr().out
        [(first_batched, batched_summary),
         (second_batched, scalar_summary)] = runs
        assert first_batched and not second_batched
        assert batched_summary == scalar_summary
        assert batched == scalar
        assert re.search(r"^conservation +exact *$", batched, re.M)
