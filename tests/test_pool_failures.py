"""A worker process that dies in an experiment pool names the cell it ran.

The tenant, shock-resilience and figure-grid drivers fan their cells over
a process pool. A dead worker (``BrokenProcessPool``) or an exception
escaping one must surface as an :class:`ExperimentError` naming the cell
and its config hash, and the CLI must exit 2 with one ``error:`` line.
"""

import dataclasses
import functools
import os
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import errors as errors_module
from repro.cli import main
from repro.errors import ExperimentError, WorkloadError
from repro.experiments import runner as runner_module
from repro.experiments import shocks as shocks_module
from repro.experiments import tenants as tenants_module
from repro.experiments.config import ExperimentProfile
from repro.experiments.runner import run_grid
from repro.experiments.shocks import run_shock_resilience
from repro.experiments.tenants import (TenantExperimentConfig,
                                       run_tenant_experiment)
from repro.obs.manifest import config_hash
from repro.workload.grammar import parse_shock

QUICK = dict(tenant_count=6, query_count=20, interarrival_s=5.0,
             settlement_period_s=50.0)
CONFIGS = [TenantExperimentConfig(scheme=name, **QUICK)
           for name in ("econ-cheap", "econ-fast")]
SHOCKED = [TenantExperimentConfig(
    scheme=name, shocks=(parse_shock("price@0.4:0.3:1.6"),), **QUICK)
    for name in ("econ-cheap", "econ-fast")]
PROFILE = ExperimentProfile(name="tiny", query_count=30,
                            interarrival_times_s=(1.0, 60.0),
                            schemes=("econ-cheap", "econ-fast"))

_PARENT_PID = os.getpid()
_RUN_CELL = tenants_module.run_tenant_cell
_RESILIENCE_PAIR = shocks_module._resilience_pair
_GRID_CELL = runner_module._run_cell_task


def _in_worker() -> bool:
    return os.getpid() != _PARENT_PID


def _die_running_econ_cheap(config, recorder=None):
    if config.scheme == "econ-cheap" and _in_worker():
        os._exit(1)
    return _RUN_CELL(config, recorder)


def _raise_in_econ_fast(config, recorder=None):
    if config.scheme == "econ-fast":
        raise KeyError("lost cell state")
    return _RUN_CELL(config, recorder)


def _workload_error_in_econ_fast(config, recorder=None):
    if config.scheme == "econ-fast":
        raise WorkloadError("bad arrivals")
    return _RUN_CELL(config, recorder)


def _pair_dies_running_econ_cheap(config, recorder=None):
    if config.scheme == "econ-cheap" and _in_worker():
        os._exit(1)
    return _RESILIENCE_PAIR(config, recorder)


def _grid_cell_dies_at_1s(task):
    if task[2] == 1.0 and _in_worker():
        os._exit(1)
    return _GRID_CELL(task)


def _prefix(config) -> str:
    return f"tenant cell {config.scheme}, cell config {config_hash(config)}"


class TestTenantPool:
    def test_dead_worker_names_the_cell(self, monkeypatch):
        monkeypatch.setattr(tenants_module, "run_tenant_cell",
                            _die_running_econ_cheap)
        with pytest.raises(ExperimentError, match="died") as caught:
            run_tenant_experiment(CONFIGS, jobs=2)
        assert str(caught.value).startswith(_prefix(CONFIGS[0]) + ": ")

    def test_exception_escaping_a_worker_is_typed(self, monkeypatch):
        monkeypatch.setattr(tenants_module, "run_tenant_cell",
                            _raise_in_econ_fast)
        with pytest.raises(ExperimentError, match="KeyError") as caught:
            run_tenant_experiment(CONFIGS, jobs=2)
        assert str(caught.value).startswith(_prefix(CONFIGS[1]) + ": ")

    def test_library_errors_keep_their_type(self, monkeypatch):
        monkeypatch.setattr(tenants_module, "run_tenant_cell",
                            _workload_error_in_econ_fast)
        with pytest.raises(WorkloadError) as caught:
            run_tenant_experiment(CONFIGS, jobs=2)
        assert str(caught.value) == f"{_prefix(CONFIGS[1])}: bad arrivals"

    def test_cli_exits_2_with_one_error_line(self, monkeypatch, capsys):
        monkeypatch.setattr(tenants_module, "run_tenant_cell",
                            _die_running_econ_cheap)
        assert main(["tenants", "--n-tenants", "6", "--queries", "20",
                     "--interarrival", "5", "--settlement-period", "50",
                     "--schemes", "econ-cheap,econ-fast",
                     "--jobs", "2"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        # The CLI's cells plan batched over the streamed population.
        cli_cell = dataclasses.replace(CONFIGS[0], planning="batched",
                                       arrival_mode="streamed")
        assert lines[0].startswith(f"error: {_prefix(cli_cell)}: ")


class TestShockPool:
    def test_dead_worker_names_the_cell(self, monkeypatch):
        monkeypatch.setattr(shocks_module, "_resilience_pair",
                            _pair_dies_running_econ_cheap)
        with pytest.raises(ExperimentError, match="died") as caught:
            run_shock_resilience(SHOCKED, jobs=2)
        assert str(caught.value).startswith(_prefix(SHOCKED[0]) + ": ")

    def test_cli_exits_2_with_one_error_line(self, monkeypatch, capsys):
        monkeypatch.setattr(shocks_module, "_resilience_pair",
                            _pair_dies_running_econ_cheap)
        assert main(["shocks", "--schemes", "econ-cheap,econ-fast",
                     "--n-tenants", "6", "--queries", "20",
                     "--interarrival", "5", "--settlement-period", "50",
                     "--jobs", "2"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(
            "error: tenant cell econ-cheap, cell config ")
        assert "died" in lines[0]


class TestGridPool:
    def test_dead_worker_names_the_cell(self, monkeypatch):
        monkeypatch.setattr(runner_module, "_run_cell_task",
                            _grid_cell_dies_at_1s)
        with pytest.raises(ExperimentError, match="died") as caught:
            run_grid(PROFILE, use_cache=False, jobs=2)
        expected = config_hash((PROFILE, "econ-cheap", 1.0))
        assert str(caught.value).startswith(
            f"grid cell econ-cheap @ 1s, cell config {expected}: ")

    def test_cli_exits_2_with_one_error_line(self, monkeypatch, capsys):
        runner_module._GRID_CACHE.clear()
        monkeypatch.setattr(runner_module, "_run_cell_task",
                            _grid_cell_dies_at_1s)
        assert main(["figure4", "--profile", "quick", "--jobs", "2"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: grid cell ")
        assert "died" in lines[0]


class _PoolBrokenAtSecondSubmit:
    """A pool whose first worker has run (``first`` is its future's
    fate) and which is broken by the time the second item is submitted,
    as a forked pool is when the first worker dies that early."""

    submits = 0

    def __init__(self, first, max_workers):
        self._first = first

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, item):
        type(self).submits += 1
        if type(self).submits > 1:
            raise BrokenProcessPool("a child process terminated abruptly")
        future = Future()
        if isinstance(self._first, BaseException):
            future.set_exception(self._first)
        else:
            future.set_result(self._first)
        return future


class TestBrokenAtSubmit:
    """A pool that breaks while items are still being submitted names the
    first unfinished item in ``items`` order, not the one being
    submitted."""

    def run(self, monkeypatch, first):
        _PoolBrokenAtSecondSubmit.submits = 0
        monkeypatch.setattr(errors_module, "ProcessPoolExecutor",
                            functools.partial(_PoolBrokenAtSecondSubmit,
                                              first))
        with pytest.raises(ExperimentError, match="died") as caught:
            errors_module.map_naming_failures(
                str.upper, ["econ-cheap", "econ-fast", "econ-col"], 2,
                lambda item: f"cell {item}", ExperimentError)
        return str(caught.value)

    def test_dead_first_worker_names_the_first_item(self, monkeypatch):
        message = self.run(monkeypatch, BrokenProcessPool("worker died"))
        assert message == "cell econ-cheap: a worker process died"
        assert _PoolBrokenAtSecondSubmit.submits == 2  # stopped submitting

    def test_finished_first_item_names_the_second(self, monkeypatch):
        message = self.run(monkeypatch, "ECON-CHEAP")
        assert message == "cell econ-fast: a worker process died"
