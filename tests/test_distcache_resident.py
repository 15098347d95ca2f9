"""Where a partitioned cell runs never changes what it computes.

Every partition of a cell stays in the process that runs the cell, and the
``--jobs`` pool fans out whole cells. These tests pin:

* **worker-count independence** — a cell run in a pool worker reproduces
  the in-process run's checkpoints, publications, handoffs, partition
  stats and rendered tables, for hash and adaptive placement, scalar and
  batched planning, a strict-maintenance shock cell, and three partitions;
* **copied state** — epoch tasks and results that make the pickle round
  trip a pool would make (as the benchmark's traced mode does) reproduce
  the plain run, so nothing relies on sharing objects with the runner;
* **typed failures** — an exception escaping an epoch names the
  partition, the epoch and the cell's config hash; one escaping a pooled
  cell names the cell, and the CLI exits 2 with one ``error:`` line.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.cli import main
from repro.distcache import (
    DistCacheRunner,
    distcache_partition_table,
    distcache_placement_table,
)
from repro.distcache import runner as runner_module
from repro.errors import DistCacheError
from repro.experiments.tenants import (
    TenantExperimentConfig,
    tenant_aggregate_table,
    top_tenant_table,
)
from repro.obs.manifest import config_hash
from repro.workload.grammar import default_shock_grammar

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.distcache.PartitionImbalanceWarning")

CONFIG = TenantExperimentConfig(
    scheme="econ-cheap", tenant_count=16, query_count=60,
    interarrival_s=1.0, seed=1, settlement_period_s=15.0,
)
GRAMMAR = default_shock_grammar()
SHOCK_CONFIG = TenantExperimentConfig(
    scheme="econ-cheap", tenant_count=12, query_count=60,
    interarrival_s=5.0, seed=3, settlement_period_s=25.0,
    shocks=GRAMMAR.shocks, tenant_tiers=GRAMMAR.tiers, grammar=GRAMMAR,
    strict_maintenance=True,
)

#: ``(config, partitions, placement)`` of every pinned case.
CASES = {
    "hash-scalar": (CONFIG, 2, "hash"),
    "hash-batched": (replace(CONFIG, planning="batched"), 2, "hash"),
    "adaptive-scalar": (CONFIG, 2, "adaptive"),
    "shocks-strict": (SHOCK_CONFIG, 2, "hash"),
    "three-partitions-two-workers": (CONFIG, 3, "hash"),
}


def _run(case: str):
    config, partitions, placement = CASES[case]
    return DistCacheRunner(
        partitions, compare_baseline=False,
        placement=placement).run_cell(config)


def _rendered(report) -> str:
    return "\n".join([
        tenant_aggregate_table(report.cell),
        top_tenant_table(report.cell),
        distcache_partition_table(report),
        distcache_placement_table(report) or "",
    ])


def _assert_same_run(observed, expected) -> None:
    assert observed.cell == expected.cell
    assert observed.partitions == expected.partitions
    assert observed.checkpoints == expected.checkpoints
    assert observed.publications == expected.publications
    assert observed.handoffs == expected.handoffs
    assert _rendered(observed) == _rendered(expected)


def _pickled(value):
    return pickle.loads(pickle.dumps(value))


@pytest.mark.parametrize("case", list(CASES))
def test_two_workers_reproduce_the_in_process_run(case):
    """The case's cell, twice over two workers, runs in pool processes;
    each copy must match the run made in this process."""
    config, partitions, placement = CASES[case]
    in_process = _run(case)
    if placement == "adaptive":
        assert in_process.handoffs, "the case must exercise the exchange"
    runner = DistCacheRunner(partitions, max_workers=2, placement=placement,
                             compare_baseline=False)
    pooled = runner.run_cells([config, config])
    assert len(pooled) == 2
    for report in pooled:
        _assert_same_run(report, in_process)


def test_pickled_tasks_and_results_reproduce_the_plain_run(monkeypatch):
    """Each task and result makes the round trip a pool makes (as the
    benchmark's traced mode does): the runner then continues with a copied
    scheme every epoch, so nothing may rely on sharing objects with it."""
    plain = {case: _run(case) for case in CASES}
    epoch = runner_module.run_partition_epoch
    monkeypatch.setattr(runner_module, "run_partition_epoch",
                        lambda task: _pickled(epoch(_pickled(task))))
    for case, expected in plain.items():
        _assert_same_run(_run(case), expected)


_EPOCH = runner_module.run_partition_epoch


def _raise_in_epoch_two(task):
    engine = runner_module._engine_of(task.scheme)
    if engine.partition_index == 0 and task.epoch == 2:
        raise KeyError("lost partition state")
    return _EPOCH(task)


def _raise_in_econ_fast(task):
    if task.scheme.name == "econ-fast":
        return _raise_in_epoch_two(task)
    return _EPOCH(task)


class TestTypedFailures:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_exception_escaping_an_epoch_is_typed(self, monkeypatch,
                                                  workers):
        monkeypatch.setattr(runner_module, "run_partition_epoch",
                            _raise_in_epoch_two)
        with pytest.raises(DistCacheError, match="KeyError") as caught:
            DistCacheRunner(
                2, max_workers=workers,
                compare_baseline=False).run_cell(CONFIG)
        message = str(caught.value)
        assert "cache partition 0, epoch 2:" in message
        assert message.count(config_hash(CONFIG)) == 1

    def test_failure_in_a_pooled_cell_names_the_cell(self, monkeypatch):
        self._assert_failing_cell_named_once(monkeypatch, jobs=2)

    def test_failure_in_a_sequential_cell_names_the_cell(self, monkeypatch):
        self._assert_failing_cell_named_once(monkeypatch, jobs=1)

    @staticmethod
    def _assert_failing_cell_named_once(monkeypatch, jobs):
        monkeypatch.setattr(runner_module, "run_partition_epoch",
                            _raise_in_econ_fast)
        failing = replace(CONFIG, scheme="econ-fast")
        with pytest.raises(DistCacheError, match="KeyError") as caught:
            DistCacheRunner(
                2, max_workers=jobs,
                compare_baseline=False).run_cells([CONFIG, failing])
        message = str(caught.value)
        assert message.startswith(
            f"tenant cell econ-fast, cell config {config_hash(failing)}: "
            f"cache partition 0, epoch 2:")
        assert message.count(config_hash(failing)) == 1

    def test_cli_exits_2_with_one_error_line(self, monkeypatch, capsys):
        monkeypatch.setattr(runner_module, "run_partition_epoch",
                            _raise_in_econ_fast)
        assert main(["tenants", "--n-tenants", "10", "--queries", "40",
                     "--schemes", "econ-cheap,econ-fast",
                     "--settlement-period", "10.0",
                     "--cache-partitions", "2", "--jobs", "2"]) == 2
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: tenant cell econ-fast, cell config")
        assert "cache partition 0, epoch 2:" in lines[0]
        assert "Traceback" not in err
