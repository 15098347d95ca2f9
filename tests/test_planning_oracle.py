"""The scalar pipeline as test oracle for the batched single-tenant runs.

Batched planning is the library default, so ``run_scheme``, the figure
grids, the ablation sweeps and the ``scenario`` command plan from plan
tables. The scalar per-query pipeline is the reference: every run must
equal the same run built directly with ``EconomyConfig(planning="scalar")``.
"""

import functools
import re

import pytest

from repro import cli
from repro.economy.batch import MAX_BATCH_SIZE, BatchScheduler
from repro.economy.engine import PLANNING_BATCHED, PLANNING_SCALAR, EconomyConfig
from repro.experiments import ablations
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
from repro.experiments.tenants import TenantExperimentConfig
from repro.obs.metrics import attach_observability
from repro.obs.trace import TraceRecorder
from repro.policies.economic import EconomicSchemeConfig
from repro.simulator.simulation import (
    CloudSimulation,
    SimulationConfig,
    run_scheme,
)
from repro.system import CloudSystem
from repro.workload.generator import WorkloadGenerator, WorkloadSpec
from repro.workload.scenarios import SCENARIO_NAMES

#: Flags that put settlements, failure checks, strict maintenance and
#: shocks into every scenario run, so the batched planner meets them all.
SCENARIO_FLAGS = ["--queries", "150", "--settlement-period", "120",
                  "--failure-check-period", "30", "--strict-maintenance",
                  "--shock", "invalidate@0.5:index",
                  "--shock", "price@0.3:0.2:2"]


#: ``EconomyConfig`` with scalar planning: patched over a driver's name
#: for it, the driver builds the scalar twin of its run.
SCALAR_ECONOMY = functools.partial(EconomyConfig, planning=PLANNING_SCALAR)


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
        monkeypatch.setattr(cli, "EconomyConfig", SCALAR_ECONOMY)
        assert cli.main(argv) == 0
        scalar = capsys.readouterr().out
        [(first_batched, batched_summary),
         (second_batched, scalar_summary)] = runs
        assert first_batched and not second_batched
        assert batched_summary == scalar_summary
        assert batched == scalar
        assert re.search(r"^conservation +exact *$", batched, re.M)


def test_single_tenant_runs_plan_batched_by_default():
    """Batched is the engine's default; tenant cells keep scalar, because
    adaptive placement is wrong under batched planning."""
    assert EconomyConfig().planning == PLANNING_BATCHED
    assert TenantExperimentConfig().planning == PLANNING_SCALAR
    assert CloudSystem().scheme("econ-cheap").plans_in_batches


def record_views(monkeypatch):
    """Record, per query the scheduler is asked about, whether it handed
    out a batch view (True) or let the query fall back to scalar (False)."""
    views = []
    view_for = BatchScheduler.view_for

    def spy(self, query):
        view = view_for(self, query)
        views.append(view is not None)
        return view

    monkeypatch.setattr(BatchScheduler, "view_for", spy)
    return views


class TestRunSchemeOracle:
    #: Past one window, so an unsettled run spans two.
    QUERIES = MAX_BATCH_SIZE + 76

    @pytest.mark.parametrize("settlement", [None, 60.0])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", ["econ-col", "econ-cheap", "econ-fast"])
    def test_default_run_equals_scalar(self, monkeypatch, name, seed,
                                       settlement):
        workload = WorkloadGenerator(WorkloadSpec(
            query_count=self.QUERIES, interarrival_s=1.0,
            seed=seed)).generate()
        system = CloudSystem()
        config = SimulationConfig(settlement_period_s=settlement)

        def simulate(scheme):
            if settlement is None:
                return run_scheme(scheme, workload).summary
            return CloudSimulation(scheme, config).run(workload).summary

        views = record_views(monkeypatch)
        batched = simulate(system.scheme(name))
        assert views == [True] * self.QUERIES
        scalar_scheme = system.scheme(name, EconomicSchemeConfig(
            economy=SCALAR_ECONOMY()))
        assert not scalar_scheme.plans_in_batches
        assert simulate(scalar_scheme) == batched
        assert len(views) == self.QUERIES   # scalar runs ask for no view


class TestAblationOracle:
    @pytest.mark.parametrize("sweep", [ablations.regret_fraction_ablation,
                                       ablations.amortization_ablation])
    def test_ablation_rows_equal_scalar(self, monkeypatch, sweep):
        runs = spy_runs(monkeypatch)
        batched = sweep()
        monkeypatch.setattr(ablations, "EconomyConfig", SCALAR_ECONOMY)
        scalar = sweep()
        assert [flag for flag, _ in runs] == \
            [True] * len(batched) + [False] * len(scalar)
        assert batched == scalar


def test_unsettled_run_windows_stay_within_the_bound():
    workload = WorkloadGenerator(WorkloadSpec(
        query_count=3_000, interarrival_s=1.0, seed=0)).generate()
    scheme = CloudSystem().scheme("econ-cheap")
    recorder = TraceRecorder()
    observers = attach_observability(scheme, recorder)
    CloudSimulation(scheme).run(workload, observers=observers)
    sizes = [fields["size"] for _, _, _, kind, fields in recorder.records
             if kind == "batch_window"]
    assert sizes == [MAX_BATCH_SIZE, MAX_BATCH_SIZE,
                     3_000 - 2 * MAX_BATCH_SIZE]
