"""One shard's execution: a full deterministic replay with scoped ownership.

A :class:`ShardWorker` assembles the cell from the frozen config with the
shared :class:`~repro.experiments.tenants.TenantCell` (never pickling
queries across the process boundary), runs the complete event stream
through its own
:class:`~repro.simulator.kernel.SimulationKernel` and
:class:`~repro.economy.engine.EconomyEngine`, and owns — materialises
mutable state and produces accounting for — only the tenants its shard is
assigned by the :class:`~repro.sharding.partition.TenantPartitioner`.

Because every worker replays the same deterministic stream, the shared
trajectory (cache contents, provider account, negotiation outcomes) is
bitwise identical across shards; only the *ownership* of the per-tenant
outputs differs. At every maintenance settlement the worker snapshots a
:class:`SettlementCheckpoint`; the coordinator later aligns these across
shards, turning each settlement boundary into a determinism barrier and a
credit-conservation audit point. Each shard replays the whole stream, so
its own books conserve bitwise: every checkpoint first runs
:func:`~repro.economy.account.audit_conservation` on the shard's engine
(and, at the final barrier, on its wallets too).

``run_shard`` is a module-level function so tasks pickle cleanly into a
``ProcessPoolExecutor``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.economy.account import audit_conservation
from repro.economy.engine import EconomyEngine
from repro.errors import ShardingError
from repro.obs.trace import TraceRecorder
from repro.experiments.tenants import (
    TenantCell,
    TenantExperimentConfig,
    sorted_breakdowns,
)
from repro.sharding.partition import TenantPartitioner
from repro.sharding.registry import ShardScopedRegistry
from repro.simulator.events import MaintenanceSettlementEvent, QueryArrivalEvent
from repro.simulator.metrics import MetricsSummary, TenantBreakdown


@dataclass(frozen=True)
class ShardTask:
    """Everything a worker process needs: the cell config plus its slot.

    ``recorder`` is the shard's own empty recorder (source ``shard<i>``)
    when the cell runs observed; it comes back filled in the result.
    """

    config: TenantExperimentConfig
    shard_index: int
    shard_count: int
    recorder: Optional[TraceRecorder] = None

    def __post_init__(self) -> None:
        TenantPartitioner(self.shard_count).validate_index(self.shard_index)


@dataclass(frozen=True)
class SettlementCheckpoint:
    """One shard's snapshot at a settlement boundary.

    ``time_s``, ``queries_dispatched``, ``provider_credit`` and
    ``provider_query_payments`` describe the *replicated* trajectory and
    must be bitwise identical on every shard; ``owned_wallet_credit``,
    ``owned_charged`` and ``owned_seed_credit`` are the shard-local halves
    that only add up across shards (the conservation audit).

    ``owned_seed_credit`` is the seed credit of the owned tenants *minted
    by this barrier*, so it grows with arrivals. The per-barrier identity
    ``owned_seed_credit == owned_wallet_credit + owned_charged`` holds —
    wallets only ever change by seeding and by charges.
    """

    time_s: float
    queries_dispatched: int
    provider_credit: float
    provider_query_payments: float
    owned_wallet_credit: float
    owned_charged: float
    owned_seed_credit: float = 0.0


@dataclass(frozen=True)
class ShardResult:
    """Everything one shard sends back to the coordinator."""

    shard_index: int
    shard_count: int
    scheme: str
    summary: MetricsSummary
    tenants: Tuple[TenantBreakdown, ...]
    wallets: Tuple[Tuple[int, str, float], ...]
    owned_tenant_count: int
    owned_initial_credit: float
    foreign_charged: float
    checkpoints: Tuple[SettlementCheckpoint, ...]
    population_size: int
    churn_waves: int
    recorder: Optional[TraceRecorder] = None


class SettlementCheckpointRecorder:
    """Read-only settlement observer: audits the shard's books bitwise,
    then snapshots the two conservation sides."""

    def __init__(self, registry: ShardScopedRegistry,
                 engine: EconomyEngine) -> None:
        self._registry = registry
        self._engine = engine
        self.checkpoints: List[SettlementCheckpoint] = []

    def __call__(self, event, kernel) -> None:
        self.checkpoints.append(self.snapshot(
            time_s=event.time_s,
            queries_dispatched=kernel.dispatch_count(QueryArrivalEvent),
        ))

    def snapshot(self, time_s: float, queries_dispatched: int,
                 final: bool = False) -> SettlementCheckpoint:
        """Audit and snapshot the accounts now; the ``final`` barrier's
        audit also folds every wallet ledger.

        Raises:
            ShardingError: if any conservation identity fails bitwise.
        """
        account = self._engine.account
        audit = audit_conservation(account, self._engine.outcomes,
                                   self._registry if final else None)
        audit.require(f"settlement barrier t={time_s!r}", ShardingError)
        return SettlementCheckpoint(
            time_s=time_s,
            queries_dispatched=queries_dispatched,
            provider_credit=account.credit,
            provider_query_payments=audit.query_payments,
            owned_wallet_credit=self._registry.total_credit(),
            owned_charged=self._registry.total_charged(),
            owned_seed_credit=self._registry.seed_credit(),
        )


class ShardWorker:
    """Runs one :class:`ShardTask` end to end inside the current process."""

    def __init__(self, task: ShardTask) -> None:
        self._task = task
        self._partitioner = TenantPartitioner(task.shard_count)

    @property
    def task(self) -> ShardTask:
        """The task this worker executes."""
        return self._task

    def run(self) -> ShardResult:
        """Replay the cell's event stream; account only the owned tenants."""
        task = self._task
        config = task.config
        # Every shard assembles the identical cell — the same arrivals and
        # shock events from the shared frozen config — so the replicated
        # trajectory stays bitwise identical; only the registry is scoped.
        cell = TenantCell(config, registry_factory=self._registry)
        registry = cell.registry
        recorder: Optional[SettlementCheckpointRecorder] = None
        observers = []
        if registry is not None:
            # The bypass baseline runs no economy: there is nothing
            # tenant-owned to scope, so the worker only filters the step
            # accounting.
            recorder = SettlementCheckpointRecorder(
                registry, cell.scheme.engine)
            observers.append((MaintenanceSettlementEvent, recorder))

        # The per-shard recorder is merged by the coordinator at the same
        # barriers that align the settlement checkpoints. Counters and
        # samples stay tagged with this shard's source so the replicated
        # replay is reported per shard, never double-counted.
        result = cell.run(observers, recorder=task.recorder)

        checkpoints: Tuple[SettlementCheckpoint, ...] = ()
        if recorder is not None:
            # The run always ends on one more barrier: the final fold the
            # coordinator merges at, present even when the trailing
            # settlement degenerated (single query, zero span).
            final = recorder.snapshot(
                time_s=result.summary.duration_s + cell.envelope.start_s,
                queries_dispatched=cell.envelope.query_count,
                final=True,
            )
            checkpoints = tuple(recorder.checkpoints) + (final,)

        owned = tuple(
            item for item in sorted_breakdowns(result.steps)
            if self._partitioner.owns(task.shard_index, item.tenant_id)
        )
        wallets: Tuple[Tuple[int, str, float], ...] = ()
        owned_count = 0
        owned_seed = 0.0
        foreign_charged = 0.0
        if registry is not None:
            wallets = registry.owned_wallets()
            owned_count = len(registry)
            owned_seed = registry.seed_credit()
            foreign_charged = registry.foreign_charged

        return ShardResult(
            shard_index=task.shard_index,
            shard_count=task.shard_count,
            scheme=config.scheme,
            summary=result.summary,
            tenants=owned,
            wallets=wallets,
            owned_tenant_count=owned_count,
            owned_initial_credit=owned_seed,
            foreign_charged=foreign_charged,
            checkpoints=checkpoints,
            population_size=cell.population.tenant_count,
            churn_waves=cell.population.churn_waves,
            recorder=task.recorder,
        )

    def _registry(self, source) -> ShardScopedRegistry:
        """The shard's registry: owned tenants derive from the source."""
        return ShardScopedRegistry(source, self._partitioner,
                                   self._task.shard_index)


def run_shard(task: ShardTask) -> ShardResult:
    """Process-pool entry point: run one shard task to completion."""
    if not isinstance(task, ShardTask):
        raise ShardingError(f"expected a ShardTask, got {type(task).__name__}")
    return ShardWorker(task).run()
