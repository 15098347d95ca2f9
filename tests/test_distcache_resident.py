"""Resident partition workers: a pooled run is the in-process run.

Each partition's scheme ships once, inside its first epoch task, and stays
in one process for the whole cell. These tests pin:

* **worker-count independence** — two workers reproduce the in-process
  run's checkpoints, publications, handoffs, partition stats and rendered
  tables, for hash and adaptive placement, scalar and batched planning, a
  strict-maintenance shock cell, and three partitions sharing two workers;
* **what crosses the process boundary** — tasks and results survive the
  pickle round trip a pool makes, and no task after a partition's first
  (and no result) carries partition state;
* **typed failures** — an exception escaping an epoch, or a dead worker,
  stops the run with an error naming the partition, the epoch and the
  cell's config hash, and the CLI exits 2 with one ``error:`` line.
"""

from __future__ import annotations

import io
import os
import pickle
from dataclasses import replace

import pytest

from repro.cache.manager import CacheManager
from repro.cli import main
from repro.distcache import (
    distcache_partition_table,
    distcache_placement_table,
    run_partitioned_cell,
)
from repro.distcache import runner as runner_module
from repro.economy.engine import EconomyEngine
from repro.economy.tenancy import TenantRegistry
from repro.errors import DistCacheError
from repro.experiments.tenants import (
    TenantExperimentConfig,
    tenant_aggregate_table,
    top_tenant_table,
)
from repro.obs.manifest import config_hash
from repro.policies.base import CachingScheme
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

#: The objects a partition's state is made of.
STATE_TYPES = (CachingScheme, EconomyEngine, CacheManager, TenantRegistry)


def _run(case: str, workers: int):
    config, partitions, placement = CASES[case]
    return run_partitioned_cell(config, partitions=partitions,
                                max_workers=workers, placement=placement,
                                compare_baseline=False)


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


def _state_objects(value) -> int:
    """Distinct partition-state objects that pickling ``value`` ships."""
    found = set()

    class Scan(pickle.Pickler):
        def persistent_id(self, obj):
            if isinstance(obj, STATE_TYPES):
                found.add(id(obj))
            return None

    Scan(io.BytesIO()).dump(value)
    return len(found)


@pytest.mark.parametrize("case", list(CASES))
def test_two_workers_reproduce_the_in_process_run(case):
    in_process = _run(case, 1)
    if CASES[case][2] == "adaptive":
        assert in_process.handoffs, "the case must exercise the exchange"
    _assert_same_run(_run(case, 2), in_process)


def test_pickled_tasks_and_results_reproduce_the_plain_run(monkeypatch):
    """In-process, each task and result makes the round trip a pool makes
    (as the benchmark's traced mode does): the resident scheme is then a
    copy, so nothing may rely on sharing objects with the runner."""
    plain = _run("adaptive-scalar", 1)
    epoch = runner_module.run_partition_epoch
    monkeypatch.setattr(runner_module, "run_partition_epoch",
                        lambda task: _pickled(epoch(_pickled(task))))
    _assert_same_run(_run("adaptive-scalar", 1), plain)


def test_only_a_partitions_first_task_carries_its_state(monkeypatch):
    shipped = []
    epoch = runner_module.run_partition_epoch

    def recording(task):
        result = epoch(task)
        shipped.append((task, result))
        return result

    monkeypatch.setattr(runner_module, "run_partition_epoch", recording)
    report = _run("adaptive-scalar", 1)
    assert len(shipped) == 2 * report.barriers_verified
    for task, result in shipped:
        assert _state_objects(result) == 0
        if task.epoch == 1:
            assert isinstance(task.scheme, CachingScheme)
        else:
            assert task.scheme is None
            assert _state_objects(task) == 0


_PARENT_PID = os.getpid()
_EPOCH = runner_module.run_partition_epoch


def _die_holding_partition_one(task):
    """The worker holding partition 1 dies; this process never does."""
    if task.resident_key[1] == 1 and os.getpid() != _PARENT_PID:
        os._exit(1)
    return _EPOCH(task)


def _raise_in_epoch_two(task):
    if task.resident_key[1] == 0 and task.epoch == 2:
        raise KeyError("lost partition state")
    return _EPOCH(task)


class TestTypedFailures:
    def test_dead_worker_names_partition_epoch_and_cell(self, monkeypatch):
        monkeypatch.setattr(runner_module, "run_partition_epoch",
                            _die_holding_partition_one)
        with pytest.raises(DistCacheError, match="died") as caught:
            run_partitioned_cell(CONFIG, partitions=2, max_workers=2,
                                 compare_baseline=False)
        message = str(caught.value)
        assert "cache partition 1, epoch 1," in message
        assert config_hash(CONFIG) in message

    @pytest.mark.parametrize("workers", [1, 2])
    def test_exception_escaping_an_epoch_is_typed(self, monkeypatch,
                                                  workers):
        monkeypatch.setattr(runner_module, "run_partition_epoch",
                            _raise_in_epoch_two)
        with pytest.raises(DistCacheError, match="KeyError") as caught:
            run_partitioned_cell(CONFIG, partitions=2, max_workers=workers,
                                 compare_baseline=False)
        message = str(caught.value)
        assert "cache partition 0, epoch 2," in message
        assert config_hash(CONFIG) in message
        assert runner_module._RESIDENT == {}

    def test_cli_exits_2_with_one_error_line(self, monkeypatch, capsys):
        monkeypatch.setattr(runner_module, "run_partition_epoch",
                            _die_holding_partition_one)
        assert main(["tenants", "--n-tenants", "10", "--queries", "40",
                     "--schemes", "econ-cheap", "--settlement-period", "10.0",
                     "--cache-partitions", "2", "--jobs", "2"]) == 2
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: cache partition 1, epoch 1,")
        assert "Traceback" not in err
