"""The partitioned-cell runner: epochs, barriers, directory publication.

One partitioned cell run executes like this::

    route queries by template  ->  partition 0 .. N-1 substreams
    for each epoch (settlement barrier to settlement barrier):
        every partition, in partition order, runs its substream slice
        and the epoch's shocks on a SimulationKernel against its OWN
        PartitionedCacheManager + provider sub-account, settles at the
        barrier, audits its sub-account, and reports its barrier state
        at the barrier:
            [adaptive placement] record the drained benefit bids, decide
            the ownership handoffs, and move each handed-off entry with
            its in-flight regret from the old owner to the new one
            route foreign regret to the (possibly new) owners
            publish the directory: a delta against the previous epoch,
            fold-verified (prev + delta == full) with a periodic
            full-snapshot anchor, folded onto every partition's snapshot
            record the audited checkpoint
    end of the cell: wallet integrity audit, fold into a TenantCellResult

Every partition of a cell runs in the process that runs the cell. An
epoch task carries the partition's live scheme (cache, sub-account,
regret, registry) and its result hands the scheme back; the runner goes
on with the returned scheme, so a task and result that were copied (the
pickle round trip of the end-to-end benchmark's traced mode) still give
the plain run's bytes. ``max_workers`` is the process budget that whole
cells share (:meth:`DistCacheRunner.run_cells`); a cell never splits
across processes, so it changes wall-clock, never results.

Unlike the replicated-replay sharding mode, each query here is planned,
priced, and negotiated by exactly **one** partition: total per-query
compute stays ~constant as partitions are added, instead of multiplying.
The price is weaker semantics (epoch-consistent directory, remote-access
surcharges, owned-only investment) — quantified for every run by the
divergence report against the global-cache baseline and documented in
``docs/distcache.md``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.distcache.directory import (
    CrossShardDirectory,
    DirectoryDelta,
    verify_delta_fold,
)
from repro.distcache.engine import PartitionedEconomyEngine, RemoteAccessModel
from repro.distcache.manager import PartitionedCacheManager
from repro.distcache.merge import PartitionCheckpoint, merge_partition_results
from repro.distcache.partition import QueryRouter, StructurePartitioner
from repro.distcache.placement import (
    HandoffRecord,
    PlacementPolicy,
)
from repro.economy.account import (CloudAccount, ConservationAudit,
                                   audit_conservation)
from repro.economy.engine import EconomyConfig
from repro.economy.tenancy import TenantRegistry
from repro.errors import (DistCacheError, call_naming_failures,
                          map_naming_failures)
from repro.experiments.tenants import (
    TenantCellResult,
    TenantExperimentConfig,
    cell_arrivals,
    cell_label,
    run_tenant_cell,
)
from repro.policies.base import CachingScheme, SchemeStep
from repro.policies.economic import EconomicSchemeConfig
from repro.simulator.events import Event, MaintenanceSettlementEvent
from repro.simulator.handlers import SchemeTenant
from repro.simulator.kernel import SimulationKernel
from repro.simulator.metrics import MetricsSummary
from repro.simulator.streaming import (
    Arrival,
    StreamingArrivalSource,
    dispatch_key,
)
from repro.structures.base import CacheStructure
from repro.system import CloudSystem
from repro.workload.grammar import compile_shock_events_for_span
from repro.workload.population import GenerativeProfileSource
from repro.workload.query import Query

#: A cache snapshot: ``(key, size_bytes)`` of every live structure.
Snapshot = Tuple[Tuple[str, int], ...]
#: Regret owed to a structure's owner, as ``(structure, dollars)`` pairs.
RegretItems = Tuple[Tuple[CacheStructure, float], ...]


class PartitionImbalanceWarning(UserWarning):
    """More cache partitions than busy templates: some serve no queries."""


@dataclass(frozen=True)
class PartitionEpochTask:
    """Everything one partition needs to replay one epoch.

    The epoch runs from ``start_s`` (the previous barrier, or the cell's
    first arrival) to the barrier at ``settle_to_s``. ``arrivals`` are the
    partition's queries plus every lifecycle marker, in stream order;
    ``shocks`` are the epoch's market-shock events. ``scheme`` is the
    partition's live state, with the previous barrier's outputs applied.
    """

    epoch: int
    start_s: float
    settle_to_s: float
    arrivals: Tuple[Arrival, ...]
    shocks: Tuple[Event, ...]
    scheme: CachingScheme


@dataclass(frozen=True)
class BarrierReport:
    """One partition's state at a barrier, read as its epoch closes.

    ``query_payments`` (the provider side) and ``outcome_charges`` (the
    tenant side) come from the partition's conservation audit, which
    required them bitwise equal before the report was built.
    """

    snapshot: Snapshot
    foreign_regret: RegretItems
    placement_bids: Tuple[Tuple[str, float], ...]
    subaccount_credit: float
    query_payments: float
    outcome_charges: float


@dataclass(frozen=True)
class PartitionEpochResult:
    """One partition's epoch output: its scheme, the replay record and its
    barrier report.

    ``scheme`` is the task's scheme after the epoch; the runner continues
    with it. ``eviction_losses`` carries the dollar loss of each kernel-driven
    eviction (invalidation shocks, strict-maintenance shutdowns) in
    event order, so the merge can book them exactly like
    ``MetricsCollector.record_kernel_evictions`` does in the
    unpartitioned run.
    """

    scheme: CachingScheme
    steps: Tuple[SchemeStep, ...]
    maintenance: Tuple[Tuple[float, float], ...]
    report: BarrierReport
    eviction_losses: Tuple[float, ...] = ()


#: Placement modes: ``hash`` pins every structure to its hash owner
#: (byte-identical to the pre-placement behaviour), ``adaptive`` applies
#: demand-driven ownership handoffs at settlement barriers.
PLACEMENT_MODES = ("hash", "adaptive")

#: Publish a full-snapshot anchor every this many barriers by default;
#: all other barriers publish (and fold-verify) only the delta.
DEFAULT_ANCHOR_PERIOD = 8


@dataclass(frozen=True)
class DirectoryPublication:
    """What one barrier's directory publication cost, full versus delta."""

    epoch: int
    entries: int
    adds: int
    removes: int
    moves: int
    delta_bytes: int
    full_bytes: int
    anchored: bool

    @property
    def published_bytes(self) -> int:
        """Modeled bytes of what the barrier ships to the partitions: the
        full snapshot at anchors, the delta everywhere else."""
        return self.full_bytes if self.anchored else self.delta_bytes


@dataclass(frozen=True)
class PartitionRunStats:
    """End-of-run accounting of one partition, for the report tables."""

    partition_index: int
    queries_served: int
    local_structures: int
    peak_cache_bytes: int
    subaccount_credit: float
    query_payments: float
    remote_hits: int
    remote_structure_accesses: int
    remote_bytes: float
    remote_dollars: float


@dataclass(frozen=True)
class DistCacheCellReport:
    """A merged partitioned cell plus the audit trail of how it ran."""

    cell: TenantCellResult
    partition_count: int
    partitions: Tuple[PartitionRunStats, ...]
    checkpoints: Tuple[PartitionCheckpoint, ...]
    directory_size: int
    remote: RemoteAccessModel
    baseline: Optional[MetricsSummary] = None
    placement: str = "hash"
    handoff_threshold: float = 0.0
    handoffs: Tuple[HandoffRecord, ...] = ()
    publications: Tuple[DirectoryPublication, ...] = ()

    @property
    def barriers_verified(self) -> int:
        """Settlement barriers at which the audits ran (and passed)."""
        return len(self.checkpoints)

    @property
    def remote_hit_count(self) -> int:
        """Chosen plans across all partitions that touched remote state."""
        return sum(stats.remote_hits for stats in self.partitions)

    @property
    def remote_dollars_paid(self) -> float:
        """Total modeled interconnect spend across all partitions."""
        return sum(stats.remote_dollars for stats in self.partitions)

    @property
    def handoff_count(self) -> int:
        """Ownership handoffs applied over the whole run."""
        return len(self.handoffs)

    @property
    def directory_bytes_published(self) -> int:
        """Modeled bytes the barriers actually shipped (deltas + anchors)."""
        return sum(pub.published_bytes for pub in self.publications)

    @property
    def directory_bytes_full(self) -> int:
        """What full republication at every barrier would have shipped."""
        return sum(pub.full_bytes for pub in self.publications)


# -- partition epochs ---------------------------------------------------------


def _engine_of(scheme: CachingScheme) -> PartitionedEconomyEngine:
    engine = getattr(scheme, "engine", None)
    if not isinstance(engine, PartitionedEconomyEngine):
        raise DistCacheError(
            f"scheme {scheme.name!r} is not running a partitioned engine")
    return engine


def _sample_partition(scheme: CachingScheme,
                      engine: PartitionedEconomyEngine, time_s: float,
                      epoch: int, final: bool) -> None:
    """Take one barrier's metrics sample into the partition's recorder
    (read-only), once the barrier's outputs are applied, so the per-epoch
    counter deltas pair with the gauges and it sees the barrier's
    handoffs."""
    engine.trace.sample(
        time_s=time_s, epoch=epoch, final=final,
        provider_credit=engine.account.credit,
        query_payments=engine.account.category_total(
            CloudAccount.CATEGORY_QUERY_PAYMENT),
        wallet_credit=scheme.tenant_registry.total_credit(),
        remote_hits=engine.remote_hits,
        remote_surcharge_dollars=engine.remote_dollars,
        cache_entries=len(engine.partitioned_cache.entries),
        disk_used_bytes=engine.partitioned_cache.disk_used_bytes,
    )


def _audit(engine: PartitionedEconomyEngine,
           registry: Optional[TenantRegistry] = None) -> ConservationAudit:
    """Audit one partition's books, raising a :class:`DistCacheError`
    that names the partition if any identity fails."""
    audit = audit_conservation(engine.account, engine.outcomes, registry)
    audit.require(f"partition {engine.partition_index}", DistCacheError)
    return audit


def _barrier_report(engine: PartitionedEconomyEngine) -> BarrierReport:
    """Audit the sub-account, then read what the barrier needs."""
    audit = _audit(engine)
    return BarrierReport(
        snapshot=engine.partitioned_cache.snapshot(),
        foreign_regret=engine.drain_foreign_regret(),
        placement_bids=engine.drain_placement_bids(),
        subaccount_credit=engine.account.credit,
        query_payments=audit.query_payments,
        outcome_charges=audit.outcome_charges,
    )


class _EpochLog:
    """What a partition epoch's :class:`SchemeTenant` records, through the
    three calls it makes on a ``MetricsCollector``. Records stay raw: the
    merge folds maintenance record by record across partitions, so
    per-partition subtotals would change its bits."""

    def __init__(self) -> None:
        self.steps: List[SchemeStep] = []
        self.maintenance: List[Tuple[float, float]] = []
        self.eviction_losses: List[float] = []

    def record_step(self, step: SchemeStep) -> None:
        self.steps.append(step)

    def record_maintenance(self, dollars: float, elapsed_s: float) -> None:
        self.maintenance.append((dollars, elapsed_s))

    def record_kernel_evictions(self, records, loss_of) -> None:
        self.eviction_losses.extend(loss_of(record) for record in records)


def run_partition_epoch(task: PartitionEpochTask) -> PartitionEpochResult:
    """Replay one partition's slice of one epoch.

    The slice runs on a :class:`SimulationKernel` through the same
    :class:`SchemeTenant` handlers as the unpartitioned run, and closes
    with a :class:`MaintenanceSettlementEvent` at the barrier, so
    maintenance settles, and strict maintenance shuts structures down, at
    exactly the instants and in exactly the order the unpartitioned run
    would.
    """
    if not isinstance(task, PartitionEpochTask):
        raise DistCacheError(
            f"expected a PartitionEpochTask, got {type(task).__name__}")
    scheme = task.scheme
    # Batched planners score the whole epoch slice in one vectorized pass;
    # scalar schemes ignore the priming (see CachingScheme.prime_workload).
    scheme.prime_workload(tuple(
        item for item in task.arrivals if isinstance(item, Query)))
    kernel = SimulationKernel(start_time_s=task.start_s)
    log = _EpochLog()
    SchemeTenant(scheme, log, start_time_s=task.start_s).register(kernel)
    source = StreamingArrivalSource(task.arrivals)
    source.register(kernel)
    kernel.schedule_all(task.shocks)
    kernel.schedule(MaintenanceSettlementEvent(time_s=task.settle_to_s))
    source.prime(kernel)
    kernel.run()
    return PartitionEpochResult(
        scheme=scheme,
        steps=tuple(log.steps),
        maintenance=tuple(log.maintenance),
        report=_barrier_report(_engine_of(scheme)),
        eviction_losses=tuple(log.eviction_losses),
    )


def _shock_key(event: Event) -> Tuple[float, int]:
    return event.time_s, event.priority


def _slices(items: Iterable, key: Callable, cuts: Sequence
            ) -> Iterator[list]:
    """Consecutive runs of ``items``, one per cut: the items keyed below
    it that no earlier run took. ``items`` is read one run at a time."""
    iterator = iter(items)
    item = next(iterator, None)
    for cut in cuts:
        run = []
        while item is not None and key(item) < cut:
            run.append(item)
            item = next(iterator, None)
        yield run


def epoch_items(arrivals: Iterable[Arrival], shocks: Iterable[Event],
                barriers: Sequence[float]
                ) -> Iterator[Tuple[List[Arrival], List[Event]]]:
    """Cut the arrivals and market shocks into one epoch per barrier.

    An epoch closes where its barrier's settlement dispatches in the
    kernel, at ``(barrier, MaintenanceSettlementEvent.priority)``:
    lifecycle markers at the barrier instant close the epoch, and shocks
    and queries at that instant open the next one. The last barrier
    closes the run, so its epoch takes everything left. ``arrivals`` must
    already be in dispatch order (a population stream is) and is read one
    epoch at a time; ``shocks`` are sorted stably by ``(time, priority)``.
    """
    cuts = [(barrier, MaintenanceSettlementEvent.priority)
            for barrier in barriers[:-1]]
    cuts.append((math.inf, 0))
    return zip(_slices(arrivals, dispatch_key, cuts),
               _slices(sorted(shocks, key=_shock_key), _shock_key, cuts))


class DistCacheRunner:
    """Runs tenant cells in partitioned-cache mode.

    Args:
        partition_count: cache partitions per cell.
        max_workers: worker processes that :meth:`run_cells` fans whole
            cells over (1 = sequential); every partition of a cell runs
            in the process that runs the cell.
        remote: the remote-access surcharge model in force.
        compare_baseline: also run the global-cache twin for the
            divergence report (skipped with one partition).
        placement: ``"hash"`` (static hash ownership, byte-identical to
            the pre-placement runner) or ``"adaptive"`` (demand-driven
            ownership handoffs at settlement barriers).
        handoff_threshold: hysteresis margin in dollars per epoch a
            challenger must exceed the incumbent by (adaptive mode).
        anchor_period: publish a full-snapshot anchor every this many
            barriers; the others publish fold-verified deltas.
        recorder: optional :class:`~repro.obs.trace.TraceRecorder` the
            cells record into; observed cells run in this process.
    """

    def __init__(self, partition_count: int, max_workers: int = 1,
                 remote: RemoteAccessModel = RemoteAccessModel(),
                 compare_baseline: bool = True,
                 placement: str = "hash",
                 handoff_threshold: float = 0.0,
                 anchor_period: int = DEFAULT_ANCHOR_PERIOD,
                 recorder=None) -> None:
        if partition_count < 1:
            raise DistCacheError(
                f"partition_count must be >= 1, got {partition_count}")
        if max_workers < 1:
            raise DistCacheError(
                f"max_workers must be >= 1, got {max_workers}")
        if placement not in PLACEMENT_MODES:
            raise DistCacheError(
                f"placement must be one of {', '.join(PLACEMENT_MODES)}; "
                f"got {placement!r}")
        if not handoff_threshold >= 0:  # `not >=` also rejects NaN
            raise DistCacheError(
                f"handoff_threshold must be >= 0, got {handoff_threshold}")
        if anchor_period < 1:
            raise DistCacheError(
                f"anchor_period must be >= 1, got {anchor_period}")
        self._base_partitioner = StructurePartitioner(partition_count)
        self._partitioner = self._base_partitioner
        self._router = QueryRouter(partition_count)
        self._max_workers = max_workers
        self._remote = remote
        self._compare_baseline = compare_baseline
        self._placement = placement
        self._handoff_threshold = handoff_threshold
        self._anchor_period = anchor_period
        # The run's TraceRecorder; None = unobserved. Per-partition
        # recorders live on the engines and are absorbed into it at the end
        # of the cell. The partition kernels get no observers, so the
        # barriers double as the metrics sampler: each partition samples
        # its engine once a barrier is fully applied, exactly where a
        # kernel run's settlement observer would fire.
        self._recorder = recorder

    @property
    def partition_count(self) -> int:
        """Cache partitions per cell."""
        return self._partitioner.partition_count

    @property
    def placement(self) -> str:
        """The placement mode in force (``hash`` or ``adaptive``)."""
        return self._placement

    # -- assembly --------------------------------------------------------------

    def _build_schemes(self, config: TenantExperimentConfig,
                       source: GenerativeProfileSource
                       ) -> List[CachingScheme]:
        """One scheme (cache + sub-account + registry) per partition.

        Every partition's registry books the whole population over the
        shared profile source; a partition only materialises the tenants
        whose queries it serves.
        """
        if config.scheme == "bypass":
            raise DistCacheError(
                "partitioned mode requires an economy; the bypass baseline "
                "has none (run it with --cache-partitions 1)"
            )
        system = CloudSystem()
        partition_count = self.partition_count
        schemes: List[CachingScheme] = []
        for index in range(partition_count):
            registry = TenantRegistry(source)

            def factory(enumerator, structure_costs, cache_config,
                        economy_config, tenants, _index=index):
                cache = PartitionedCacheManager(
                    cache_config,
                    partitioner=self._partitioner,
                    partition_index=_index,
                )
                economy = replace(
                    economy_config,
                    initial_credit=(economy_config.initial_credit
                                    / partition_count),
                )
                return PartitionedEconomyEngine(
                    enumerator=enumerator,
                    structure_costs=structure_costs,
                    cache=cache,
                    config=economy,
                    tenants=tenants,
                    remote=self._remote,
                    record_placement_bids=self._placement == "adaptive",
                )

            schemes.append(system.scheme(
                config.scheme,
                economic_config=EconomicSchemeConfig(
                    economy=EconomyConfig(
                        planning=config.planning,
                        strict_maintenance=config.strict_maintenance,
                    ),
                    tenants=registry, engine_factory=factory),
            ))
        return schemes

    # -- execution -------------------------------------------------------------

    def run_cell(self, config: TenantExperimentConfig) -> DistCacheCellReport:
        """Run one cell partitioned; audit every barrier; merge exactly."""
        (report,) = self._reports([config])
        _warn_if_imbalanced(report)
        return report

    def run_cells(self, configs: Sequence[TenantExperimentConfig]
                  ) -> List[DistCacheCellReport]:
        """Run many cells, fanned over ``max_workers`` processes.

        Reports come back in ``configs`` order. One cell, one worker, or a
        recorder runs the cells in this process, as
        :func:`~repro.experiments.tenants.run_tenant_experiment` does;
        each cell is deterministic, so the pooled path is byte-identical.
        A failure names the cell.
        """
        reports = self._reports(list(configs))
        for report in reports:
            _warn_if_imbalanced(report)
        return reports

    def _reports(self, cells: List[TenantExperimentConfig]
                 ) -> List[DistCacheCellReport]:
        if not cells:
            raise DistCacheError("at least one tenant cell is required")
        workers = 1 if self._recorder is not None else self._max_workers
        return map_naming_failures(self._run_cell, cells, workers,
                                   cell_label, DistCacheError)

    def _run_cell(self, config: TenantExperimentConfig
                  ) -> DistCacheCellReport:
        if config.warmup_queries:
            raise DistCacheError(
                "partitioned mode does not support warmup_queries")
        # Ownership overrides are per-cell state: every cell starts from
        # pure hash placement, whatever the previous cell handed off.
        self._partitioner = self._base_partitioner
        policy: Optional[PlacementPolicy] = None
        if self._placement == "adaptive":
            policy = PlacementPolicy(
                self.partition_count,
                handoff_threshold=self._handoff_threshold)
        arrivals = cell_arrivals(config)
        schemes = self._build_schemes(config, arrivals.source)
        recorder = self._recorder
        if recorder is not None:
            # Per-partition recorders ride with their schemes; absorbed
            # after the last barrier.
            for index, scheme in enumerate(schemes):
                _engine_of(scheme).attach_trace(
                    recorder.fresh(f"partition{index}"))
        envelope = arrivals.envelope
        start_s = envelope.start_s
        end_s = envelope.last_s + envelope.trailing_interval_s
        barriers: List[float] = []
        if config.settlement_period_s is not None:
            cut = start_s + config.settlement_period_s
            while cut <= end_s:
                barriers.append(cut)
                cut += config.settlement_period_s
        if not barriers or barriers[-1] != end_s:
            barriers.append(end_s)
        epochs = epoch_items(
            arrivals.items,
            compile_shock_events_for_span(
                config.shocks, envelope.start_s, envelope.last_s),
            barriers)

        partitions = range(self.partition_count)
        steps: List[List[SchemeStep]] = [[] for _ in partitions]
        maintenance: List[List[Tuple[float, float]]] = [[] for _ in partitions]
        kernel_losses: List[List[float]] = [[] for _ in partitions]
        checkpoints: List[PartitionCheckpoint] = []
        handoffs: List[HandoffRecord] = []
        publications: List[DirectoryPublication] = []
        directory = CrossShardDirectory.empty()

        for epoch, (barrier, (epoch_arrivals, shocks)) in enumerate(
                zip(barriers, epochs)):
            number = epoch + 1
            is_final = epoch == len(barriers) - 1
            epoch_start = barriers[epoch - 1] if epoch else start_s
            # Every partition receives its routed queries plus every
            # lifecycle marker (each registry books the whole population)
            # and every shock (a shock hits the whole market).
            routed: List[List[Arrival]] = [[] for _ in partitions]
            for item in epoch_arrivals:
                if isinstance(item, Query):
                    routed[self._router.partition_of(item)].append(item)
                else:
                    for queue in routed:
                        queue.append(item)
            results: List[PartitionEpochResult] = []
            for partition in partitions:
                task = PartitionEpochTask(
                    epoch=number,
                    start_s=epoch_start,
                    settle_to_s=barrier,
                    arrivals=tuple(routed[partition]),
                    shocks=tuple(shocks),
                    scheme=schemes[partition],
                )
                # Called through the module global, so a wrapper
                # installed on it (the benchmark's layer clock) sees
                # every epoch.
                results.append(call_naming_failures(
                    lambda: f"cache partition {partition}, epoch {number}",
                    DistCacheError, run_partition_epoch, task))
            schemes = [result.scheme for result in results]
            engines = [_engine_of(scheme) for scheme in schemes]

            for partition, result in enumerate(results):
                steps[partition].extend(result.steps)
                maintenance[partition].extend(result.maintenance)
                kernel_losses[partition].extend(result.eviction_losses)
            reports = [result.report for result in results]
            snapshots = dict(enumerate(report.snapshot for report in reports))

            applied: List[HandoffRecord] = []
            if policy is not None:
                applied = self._apply_handoffs(
                    engines, reports, snapshots, policy, epoch=number,
                    now=barrier)
                handoffs.extend(applied)
            forwarded = self._route_regret(reports)
            directory, delta, publication = self._publish_directory(
                snapshots, number, previous=directory)
            publications.append(publication)
            for scheme, engine, regret in zip(schemes, engines, forwarded):
                cache = engine.partitioned_cache
                if regret:
                    engine.absorb_forwarded_regret(regret)
                # A delta folds onto the snapshot the partition holds, so
                # the version check of CrossShardDirectory.apply_delta runs
                # against the state the partition actually priced with.
                cache.set_directory(directory if publication.anchored
                                    else cache.directory.apply_delta(delta))
                if recorder is not None and recorder.takes_samples:
                    _sample_partition(scheme, engine, barrier, number,
                                      is_final)
            checkpoints.append(PartitionCheckpoint(
                time_s=barrier,
                epoch=number,
                directory_size=len(directory),
                subaccount_credit=tuple(
                    report.subaccount_credit for report in reports),
                query_payments=tuple(
                    report.query_payments for report in reports),
                outcome_charges=tuple(
                    report.outcome_charges for report in reports),
                handoffs_applied=len(applied),
            ))
            if recorder is not None:
                recorder.span(
                    "settlement_barrier", start_s=epoch_start,
                    end_s=barrier, epoch=number,
                    directory_entries=len(directory),
                    directory_delta_bytes=publication.delta_bytes,
                    handoffs_applied=len(applied), final=is_final)
                for record in applied:
                    recorder.event(
                        "handoff", time_s=barrier, key=record.key,
                        from_partition=record.from_partition,
                        to_partition=record.to_partition)
                if recorder.takes_samples:
                    recorder.sample(
                        time_s=barrier, epoch=number, final=is_final,
                        directory_entries=len(directory),
                        directory_delta_bytes=publication.delta_bytes,
                        handoffs_applied=len(applied),
                    )

        registries = [scheme.tenant_registry for scheme in schemes]
        audits = [_audit(_engine_of(scheme), registry)
                  for scheme, registry in zip(schemes, registries)]
        cell = merge_partition_results(
            config=config,
            steps_by_partition=steps,
            maintenance_by_partition=maintenance,
            registries=registries,
            duration_s=end_s - start_s,
            population_size=arrivals.population.tenant_count,
            churn_waves=arrivals.population.churn_waves,
            kernel_losses_by_partition=kernel_losses,
        )
        if recorder is not None:
            for partition, scheme in enumerate(schemes):
                engine = _engine_of(scheme)
                recorder.event(
                    "partition_summary", time_s=end_s,
                    partition=partition,
                    queries_served=len(steps[partition]),
                    remote_hits=engine.remote_hits,
                    remote_surcharge_dollars=engine.remote_dollars,
                    peak_cache_bytes=(
                        engine.partitioned_cache.peak_disk_used_bytes))
                recorder.absorb(engine.trace)
        baseline: Optional[MetricsSummary] = None
        if self._compare_baseline and self.partition_count > 1:
            baseline = run_tenant_cell(config).summary
        return DistCacheCellReport(
            cell=cell,
            partition_count=self.partition_count,
            partitions=tuple(self._partition_stats(schemes, steps,
                                                   audits)),
            checkpoints=tuple(checkpoints),
            directory_size=len(directory),
            remote=self._remote,
            baseline=baseline,
            placement=self._placement,
            handoff_threshold=self._handoff_threshold,
            handoffs=tuple(handoffs),
            publications=tuple(publications),
        )

    # -- barrier work ----------------------------------------------------------

    def _apply_handoffs(self, engines: Sequence[PartitionedEconomyEngine],
                        reports: Sequence[BarrierReport],
                        snapshots: Dict[int, Snapshot],
                        policy: PlacementPolicy, epoch: int,
                        now: float) -> List[HandoffRecord]:
        """Adaptive placement's barrier step: decide and apply handoffs.

        Feeds every partition's drained per-structure benefit bids to the
        policy and asks it for this epoch's handoff set (only structures
        currently resident on their owner are eligible — a handoff always
        has residency state to move). The handoffs then apply in one
        exchange, before the directory is published:

        1. every old owner releases its handed-off
           :class:`~repro.cache.storage.CacheEntry` objects — billing
           watermark, usage recency, amortisation state — without an
           eviction record, each with its in-flight regret;
        2. the ownership-override table is extended and installed on
           every partition (one :class:`StructurePartitioner` value, so
           directory checks, admission guards, and regret routing all
           flip together);
        3. every new owner installs the entries under the new table and
           adopts the regret.

        ``snapshots`` is updated in place with the caches after the
        exchange. No account is touched, so the bitwise sub-account
        reconciliation of the same barrier is unaffected; subsequent
        epochs bill the structure's maintenance and amortisation to the
        new owner's traffic.
        """
        for partition, report in enumerate(reports):
            for key, benefit in report.placement_bids:
                policy.record(key, partition, benefit)

        held = {partition: {key for key, _ in snapshot}
                for partition, snapshot in snapshots.items()}
        owners: Dict[str, int] = {}
        for key in policy.pending_keys():
            owner = self._partitioner.partition_of(key)
            if key in held[owner]:
                owners[key] = owner
        decisions = policy.propose(owners)
        if not decisions:
            return []

        moved = [(engines[decision.from_partition].partitioned_cache
                  .extract_entry(decision.key),
                  engines[decision.from_partition].surrender_regret(
                      decision.key))
                 for decision in decisions]
        self._partitioner = self._partitioner.with_overrides(
            {decision.key: decision.to_partition for decision in decisions})
        for engine in engines:
            engine.partitioned_cache.set_partitioner(self._partitioner)
        for decision, (entry, regret) in zip(decisions, moved):
            engine = engines[decision.to_partition]
            engine.partitioned_cache.install_entry(entry, now=now)
            engine.adopt_regret(entry.structure, regret)
        for partition, engine in enumerate(engines):
            snapshots[partition] = engine.partitioned_cache.snapshot()
        return [HandoffRecord(
            epoch=epoch,
            key=decision.key,
            from_partition=decision.from_partition,
            to_partition=decision.to_partition,
            margin=decision.margin,
        ) for decision in decisions]

    def _route_regret(self, reports: Sequence[BarrierReport]
                      ) -> List[RegretItems]:
        """Route regret earned on foreign-owned structures to their owners.

        Part of the barrier exchange: demand observed by a borrowing
        partition reaches the owner's investment rule one epoch late.
        Reports are read in partition order, so the exchange is
        deterministic.
        """
        forwarded: List[List[Tuple[CacheStructure, float]]] = [
            [] for _ in reports
        ]
        for report in reports:
            for structure, amount in report.foreign_regret:
                owner = self._partitioner.partition_of(structure.key)
                forwarded[owner].append((structure, amount))
        return [tuple(items) for items in forwarded]

    def _publish_directory(self, snapshots: Dict[int, Snapshot],
                           version: int,
                           previous: CrossShardDirectory
                           ) -> Tuple[CrossShardDirectory, DirectoryDelta,
                                      DirectoryPublication]:
        """Publish one barrier's directory as a fold-verified delta.

        The full snapshot is still assembled (and its ownership
        invariants verified) every barrier — what changes is what the
        partitions receive: the delta against the previous epoch, except
        every ``anchor_period``-th barrier, which ships the full snapshot
        as an audit anchor. ``prev + delta == full`` is re-verified here
        before anything ships, and every partition folds the delta onto
        its own snapshot, so a divergent delta can never propagate.
        """
        directory = CrossShardDirectory.publish(
            snapshots, self._partitioner, version=version)
        directory.verify_backed_by({
            partition: [key for key, _ in snapshot]
            for partition, snapshot in snapshots.items()
        })
        delta = DirectoryDelta.between(previous, directory)
        verify_delta_fold(previous, delta, directory)
        publication = DirectoryPublication(
            epoch=version,
            entries=len(directory),
            adds=len(delta.adds),
            removes=len(delta.removes),
            moves=len(delta.moves),
            delta_bytes=delta.wire_bytes,
            full_bytes=directory.wire_bytes,
            anchored=version % self._anchor_period == 0,
        )
        return directory, delta, publication

    def _partition_stats(self, schemes: Sequence[CachingScheme],
                         steps: Sequence[Sequence[SchemeStep]],
                         audits: Sequence[ConservationAudit]
                         ) -> List[PartitionRunStats]:
        stats: List[PartitionRunStats] = []
        for partition, (scheme, audit) in enumerate(zip(schemes, audits)):
            engine = _engine_of(scheme)
            cache = engine.partitioned_cache
            stats.append(PartitionRunStats(
                partition_index=partition,
                queries_served=len(steps[partition]),
                local_structures=len(cache.built_keys),
                peak_cache_bytes=cache.peak_disk_used_bytes,
                subaccount_credit=engine.account.credit,
                query_payments=audit.query_payments,
                remote_hits=engine.remote_hits,
                remote_structure_accesses=engine.remote_structure_accesses,
                remote_bytes=engine.remote_bytes,
                remote_dollars=engine.remote_dollars,
            ))
        return stats


def _warn_if_imbalanced(report: DistCacheCellReport) -> None:
    """Warn, in the calling process, when some partition served nothing."""
    if min(stats.queries_served for stats in report.partitions) == 0:
        warnings.warn(
            f"cache partition count {report.partition_count} exceeds the "
            f"workload's busy template count; some cache partitions serve "
            f"no queries",
            PartitionImbalanceWarning,
            stacklevel=3,
        )


def run_partitioned_cell(config: TenantExperimentConfig,
                         partitions: int,
                         max_workers: int = 1,
                         remote: RemoteAccessModel = RemoteAccessModel(),
                         compare_baseline: bool = True,
                         placement: str = "hash",
                         handoff_threshold: float = 0.0,
                         anchor_period: int = DEFAULT_ANCHOR_PERIOD,
                         recorder=None) -> DistCacheCellReport:
    """Run one tenant cell in partitioned-cache mode (convenience wrapper)."""
    runner = DistCacheRunner(partitions, max_workers=max_workers,
                             remote=remote, compare_baseline=compare_baseline,
                             placement=placement,
                             handoff_threshold=handoff_threshold,
                             anchor_period=anchor_period,
                             recorder=recorder)
    return runner.run_cell(config)


def run_partitioned_experiment(configs: Sequence[TenantExperimentConfig],
                               partitions: int,
                               jobs: int = 1,
                               remote: RemoteAccessModel = RemoteAccessModel(),
                               compare_baseline: bool = True,
                               placement: str = "hash",
                               handoff_threshold: float = 0.0,
                               anchor_period: int = DEFAULT_ANCHOR_PERIOD,
                               recorder=None) -> List[DistCacheCellReport]:
    """Run many cells partitioned; ``jobs`` worker processes share the
    cells (see :meth:`DistCacheRunner.run_cells`)."""
    runner = DistCacheRunner(partitions, max_workers=jobs, remote=remote,
                             compare_baseline=compare_baseline,
                             placement=placement,
                             handoff_threshold=handoff_threshold,
                             anchor_period=anchor_period,
                             recorder=recorder)
    return runner.run_cells(configs)
