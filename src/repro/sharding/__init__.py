"""Process-sharded tenant execution.

Scales one multi-tenant economy run across worker processes: a stable
hash partitions the tenant population over shards, every shard replays
the same deterministic event stream while owning only its subset's
mutable state (wallet ledgers, per-tenant regret), and the coordinator
aligns the shards at settlement barriers before folding their accounts
back together with exact credit conservation. The merged report is
byte-identical to the unsharded run for the same seed — see
``docs/sharding.md`` for why determinism forces this replicated-replay,
partitioned-ownership design and what it costs. It is a library mode
with no CLI flag, and it runs unobserved.

Typical use::

    from repro.sharding import ShardCoordinator
    from repro.experiments.tenants import TenantExperimentConfig

    coordinator = ShardCoordinator(shard_count=4, max_workers=4)
    report = coordinator.run_cell(TenantExperimentConfig(tenant_count=1000))
    report.cell            # byte-identical to run_tenant_cell(...)
    report.barriers_verified, report.max_conservation_residual
"""

from repro.sharding.coordinator import (
    ShardCoordinator,
    ShardImbalanceWarning,
    ShardPlan,
)
from repro.sharding.merge import (
    CONSERVATION_ABS_TOL,
    CONSERVATION_REL_TOL,
    ShardMergeReport,
    merge_shard_results,
)
from repro.sharding.partition import TenantPartitioner, stable_tenant_hash
from repro.sharding.registry import ShardScopedRegistry
from repro.sharding.worker import (
    SettlementCheckpoint,
    SettlementCheckpointRecorder,
    ShardResult,
    ShardTask,
    ShardWorker,
    run_shard,
)

__all__ = [
    "CONSERVATION_ABS_TOL",
    "CONSERVATION_REL_TOL",
    "SettlementCheckpoint",
    "SettlementCheckpointRecorder",
    "ShardCoordinator",
    "ShardImbalanceWarning",
    "ShardMergeReport",
    "ShardPlan",
    "ShardResult",
    "ShardScopedRegistry",
    "ShardTask",
    "ShardWorker",
    "TenantPartitioner",
    "merge_shard_results",
    "run_shard",
    "stable_tenant_hash",
]
