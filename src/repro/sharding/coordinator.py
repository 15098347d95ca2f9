"""The coordinator: fan shard tasks out, collect, verify, merge.

One :class:`ShardCoordinator` serves a whole experiment: it expands every
cell into ``shard_count`` independent :class:`~repro.sharding.worker.ShardTask`
objects, runs all of them on one shared ``ProcessPoolExecutor`` (or
in-process when ``max_workers`` is 1 — the execution path is the same
``run_shard`` function either way), and folds each cell's shards through
:func:`~repro.sharding.merge.merge_shard_results`, where the settlement
barriers are aligned and audited.

The two parallelism axes compose: ``max_workers`` is the total process
budget, shared by the ``cells x shards`` task matrix, so scheme-level
parallelism (the old ``--jobs``) and tenant-level sharding (``--shards``)
never fight over who gets to spawn.

A shard that fails — an exception escaping ``run_shard``, or a worker
process that died — raises an error naming the shard and its cell's
config hash: a :class:`~repro.errors.ShardingError`, or the library error
that escaped, which keeps its type.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import ShardingError, map_naming_failures
from repro.experiments.tenants import TenantExperimentConfig
from repro.obs.manifest import config_hash
from repro.obs.trace import TraceRecorder
from repro.sharding.merge import ShardMergeReport, merge_shard_results
from repro.sharding.worker import ShardResult, ShardTask, run_shard


class ShardImbalanceWarning(UserWarning):
    """More shards than tenants: some workers will own nothing."""


@dataclass(frozen=True)
class ShardPlan:
    """How a sharded run is laid out.

    Attributes:
        shard_count: tenant shards per cell (>= 1).
        max_workers: total process budget shared by all shard tasks; 1 runs
            everything in-process, which is still the full partition/merge
            pipeline (useful for tests and byte-identity checks).
    """

    shard_count: int = 1
    max_workers: int = 1

    def __post_init__(self) -> None:
        if self.shard_count < 1:
            raise ShardingError(
                f"shard_count must be >= 1, got {self.shard_count}"
            )
        if self.max_workers < 1:
            raise ShardingError(
                f"max_workers must be >= 1, got {self.max_workers}"
            )


class ShardCoordinator:
    """Executes tenant cells as sharded runs and merges them exactly.

    With a ``recorder`` every shard records into its own empty copy of it
    (:meth:`~repro.obs.trace.TraceRecorder.fresh`, source ``shard<i>``),
    and :meth:`run_cells` absorbs each cell's merged recorder into it.
    """

    def __init__(self, shard_count: int, max_workers: int = 1,
                 recorder: Optional[TraceRecorder] = None) -> None:
        self._plan = ShardPlan(shard_count=shard_count,
                               max_workers=max_workers)
        self._recorder = recorder

    @property
    def plan(self) -> ShardPlan:
        """The run layout."""
        return self._plan

    @property
    def shard_count(self) -> int:
        """Tenant shards per cell."""
        return self._plan.shard_count

    def tasks_for(self, config: TenantExperimentConfig) -> List[ShardTask]:
        """The shard tasks one cell expands into."""
        if self.shard_count > config.tenant_count:
            warnings.warn(
                f"shard count {self.shard_count} exceeds the tenant count "
                f"{config.tenant_count}; some shards will own no tenants",
                ShardImbalanceWarning,
                stacklevel=2,
            )
        recorder = self._recorder
        return [
            ShardTask(config=config, shard_index=index,
                      shard_count=self.shard_count,
                      recorder=(None if recorder is None
                                else recorder.fresh(f"shard{index}")))
            for index in range(self.shard_count)
        ]

    def run_cell(self, config: TenantExperimentConfig) -> ShardMergeReport:
        """Run one cell sharded and return the verified merged result."""
        return self.run_cells([config])[0]

    def run_cells(self, configs: Sequence[TenantExperimentConfig]
                  ) -> List[ShardMergeReport]:
        """Run many cells sharded over one shared process pool.

        Results come back in ``configs`` order; every cell is merged and
        verified independently (a determinism divergence in one cell does
        not silently poison the others — it raises). Each merged recorder
        is absorbed into the coordinator's, in cell order.
        """
        cells = list(configs)
        if not cells:
            raise ShardingError("at least one tenant cell is required")
        tasks: List[ShardTask] = []
        for config in cells:
            tasks.extend(self.tasks_for(config))
        results = self._execute(tasks)
        reports: List[ShardMergeReport] = []
        for index, config in enumerate(cells):
            group = results[index * self.shard_count:
                            (index + 1) * self.shard_count]
            reports.append(merge_shard_results(group, config))
        if self._recorder is not None:
            for report in reports:
                self._recorder.absorb(report.recorder)
        return reports

    def _execute(self, tasks: List[ShardTask]) -> List[ShardResult]:
        # run_shard is read from the module global at call time, so a
        # wrapper installed on it (the benchmark's layer clock) sees every
        # in-process shard.
        return map_naming_failures(run_shard, tasks, self._plan.max_workers,
                                   _shard_label, ShardingError)


def _shard_label(task: ShardTask) -> str:
    """How a failure names a shard: its index and its cell's config hash
    (see :func:`~repro.errors.call_naming_failures`)."""
    return (f"tenant shard {task.shard_index} of {task.shard_count}, "
            f"cell config {config_hash(task.config)}")
