"""Partitioned cache & provider economy: split the cache by ownership.

Where :mod:`repro.sharding` replicates the full replay on every worker
(scaling per-worker *tenant state* while the shared cache couples all
tenants), this subsystem partitions the cache and the provider economy
themselves: a stable hash assigns every structure key to exactly one
partition (:class:`StructurePartitioner`), queries route to partitions by
template affinity (:class:`QueryRouter`), each partition runs its own
:class:`PartitionedCacheManager` and provider sub-account, and a
:class:`CrossShardDirectory` published at every settlement barrier lets
partitions use each other's structures for a modeled remote-access
surcharge (:class:`RemoteAccessModel`). Each query is planned, priced,
and negotiated by exactly one partition — total engine work stays flat as
partitions are added, instead of multiplying; barrier exchange and audits
come on top (``docs/distcache.md`` measures the cost).

Placement is hash-static by default, but ``placement="adaptive"`` lets a
:class:`PlacementPolicy` hand structures to the partition deriving the
most priced benefit from them at each barrier (override table in
:class:`StructurePartitioner`; residency and in-flight regret move with
the structure, money does not). Barriers publish the directory as
fold-verified :class:`DirectoryDelta` records (``prev + delta == full``)
with a periodic full-snapshot anchor, so the barrier cost tracks churn
rather than cache size.

The price is **new, explicitly different semantics** (epoch-consistent
directory, remote hits, owned-only investment) — see ``docs/distcache.md``
for the contract, the bitwise conservation audits, and when to prefer the
replicated mode. With one partition the mode degenerates exactly: the
report tables are byte-identical to the global-cache path.

Typical use, directly or through ``repro.cli tenants --cache-partitions N``::

    from repro.distcache import run_partitioned_cell
    from repro.experiments.tenants import TenantExperimentConfig

    report = run_partitioned_cell(
        TenantExperimentConfig(tenant_count=200, settlement_period_s=60.0),
        partitions=4)
    report.cell                 # merged TenantCellResult
    report.barriers_verified    # audited settlement barriers
    report.baseline             # global-cache summary for the same seed
"""

from repro.distcache.directory import (
    CrossShardDirectory,
    DirectoryDelta,
    DirectoryEntry,
    verify_delta_fold,
)
from repro.distcache.engine import (
    PartitionedEconomyEngine,
    RemoteAccessModel,
)
from repro.distcache.manager import PartitionedCacheManager
from repro.distcache.merge import (
    PartitionCheckpoint,
    merge_partition_results,
)
from repro.distcache.partition import QueryRouter, StructurePartitioner
from repro.distcache.placement import (
    HandoffDecision,
    HandoffRecord,
    PlacementPolicy,
)
from repro.distcache.report import (
    distcache_divergence_table,
    distcache_partition_table,
    distcache_placement_table,
)
from repro.distcache.runner import (
    DEFAULT_ANCHOR_PERIOD,
    PLACEMENT_MODES,
    BarrierReport,
    DirectoryPublication,
    DistCacheCellReport,
    DistCacheRunner,
    PartitionEpochResult,
    PartitionEpochTask,
    PartitionImbalanceWarning,
    PartitionRunStats,
    run_partition_epoch,
    run_partitioned_cell,
    run_partitioned_experiment,
)
from repro.economy.account import ledger_fold, outcome_charge_fold

__all__ = [
    "DEFAULT_ANCHOR_PERIOD",
    "PLACEMENT_MODES",
    "BarrierReport",
    "CrossShardDirectory",
    "DirectoryDelta",
    "DirectoryEntry",
    "DirectoryPublication",
    "DistCacheCellReport",
    "DistCacheRunner",
    "HandoffDecision",
    "HandoffRecord",
    "PartitionCheckpoint",
    "PartitionEpochResult",
    "PartitionEpochTask",
    "PartitionImbalanceWarning",
    "PartitionRunStats",
    "PartitionedCacheManager",
    "PartitionedEconomyEngine",
    "PlacementPolicy",
    "QueryRouter",
    "RemoteAccessModel",
    "StructurePartitioner",
    "distcache_divergence_table",
    "distcache_partition_table",
    "distcache_placement_table",
    "ledger_fold",
    "merge_partition_results",
    "outcome_charge_fold",
    "run_partition_epoch",
    "run_partitioned_cell",
    "run_partitioned_experiment",
    "verify_delta_fold",
]
