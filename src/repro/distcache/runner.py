"""The partitioned-cell runner: epochs, barriers, directory publication.

One partitioned cell run executes like this::

    route queries by template  ->  partition 0 .. N-1 substreams
    for each epoch (settlement barrier to settlement barrier):
        every partition, in the process that holds it, folds in the
        previous barrier's outputs, runs its substream slice and the
        epoch's shocks on a SimulationKernel against its OWN
        PartitionedCacheManager + provider sub-account, settles at the
        barrier, audits its sub-account, and reports its barrier state
        at the barrier, in this process:
            [adaptive placement] record the drained benefit bids, decide
            the ownership handoffs, and move each handed-off entry with
            its in-flight regret from the old owner to the new one
            route foreign regret to the (possibly new) owners
            publish the directory: a delta against the previous epoch,
            fold-verified (prev + delta == full) with a periodic
            full-snapshot anchor
            record the audited checkpoint
    end of the cell: the schemes come back once; wallet integrity audit,
    fold into a TenantCellResult

Partitions are **resident**: a partition's scheme (cache, sub-account,
regret, registry) ships once, inside its first epoch task, and then stays
in one process for the whole cell — this process with one worker, else
the single-process pool ``p % workers`` for partition ``p``. Later tasks
carry only the epoch's arrivals and the previous barrier's outputs, and
results only the replay record and the barrier report. Every
cross-partition decision is taken here, from the reports, in partition
order, so the run is deterministic regardless of pool scheduling —
``max_workers`` changes wall-clock, never results.

Unlike the replicated-replay sharding mode, each query here is planned,
priced, and negotiated by exactly **one** partition: total per-query
compute stays ~constant as partitions are added, instead of multiplying.
The price is weaker semantics (epoch-consistent directory, remote-access
surcharges, owned-only investment) — quantified for every run by the
divergence report against the global-cache baseline and documented in
``docs/distcache.md``.
"""

from __future__ import annotations

import itertools
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, Union)

from repro.cache.storage import CacheEntry
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
from repro.errors import DistCacheError, call_naming_failures
from repro.experiments.tenants import (
    TenantCellResult,
    TenantExperimentConfig,
    cell_arrivals,
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

#: A resident partition's store key: ``(run id, partition index)``.
ResidentKey = Tuple[int, int]
#: A cache snapshot: ``(key, size_bytes)`` of every live structure.
Snapshot = Tuple[Tuple[str, int], ...]
#: Regret owed to a structure's owner, as ``(structure, dollars)`` pairs.
RegretItems = Tuple[Tuple[CacheStructure, float], ...]
#: Handed-off entries, each with the regret that travels with it.
MovedEntries = Tuple[Tuple[CacheEntry, float], ...]


class PartitionImbalanceWarning(UserWarning):
    """More cache partitions than busy templates: some serve no queries."""


@dataclass(frozen=True)
class BarrierOutputs:
    """What one barrier sends a partition, applied before it runs again.

    Attributes:
        directory: the publication — the :class:`DirectoryDelta` against
            the snapshot the partition holds, or the full
            :class:`CrossShardDirectory` at anchors; ``None`` before the
            first barrier.
        forwarded_regret: regret other partitions earned on structures
            this partition owns.
        partitioner: the partitioner carrying the current override table
            (adaptive placement only).
        sample: ``(time_s, epoch, final)`` of the barrier whose metrics
            sample is due (``--metrics`` only). It is taken once the
            outputs above are applied, so it sees the barrier's handoffs.
    """

    directory: Union[None, CrossShardDirectory, DirectoryDelta] = None
    forwarded_regret: RegretItems = ()
    partitioner: Optional[StructurePartitioner] = None
    sample: Optional[Tuple[float, int, bool]] = None


@dataclass(frozen=True)
class PartitionEpochTask:
    """Everything one resident partition needs to replay one epoch.

    The epoch runs from ``start_s`` (the previous barrier, or the cell's
    first arrival) to the barrier at ``settle_to_s``. ``arrivals`` are the
    partition's queries plus every lifecycle marker, in stream order;
    ``shocks`` are the epoch's market-shock events. ``scheme`` is set on
    a partition's first task only; it becomes the resident state stored
    under ``resident_key``.
    """

    resident_key: ResidentKey
    epoch: int
    start_s: float
    settle_to_s: float
    arrivals: Tuple[Arrival, ...]
    shocks: Tuple[Event, ...]
    inbound: BarrierOutputs = BarrierOutputs()
    scheme: Optional[CachingScheme] = None


@dataclass(frozen=True)
class BarrierReport:
    """One partition's state at a barrier, read where the state lives.

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
    """One partition's epoch output: the replay record and its barrier report.

    ``eviction_losses`` carries the dollar loss of each kernel-driven
    eviction (invalidation shocks, strict-maintenance shutdowns) in
    event order, so the merge can book them exactly like
    ``MetricsCollector.record_kernel_evictions`` does in the
    unpartitioned run.
    """

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


# -- resident partitions: runs in whichever process holds the partition --------

#: The schemes resident in this process: a pool worker holds the
#: partitions mapped to it, an in-process run holds all of them.
_RESIDENT: Dict[ResidentKey, CachingScheme] = {}

#: Run ids handed out by this process. A counter rather than ``id()``, so
#: the store keys of a repeated run pickle to the same bytes.
_RUN_IDS = itertools.count()


def _engine_of(scheme: CachingScheme) -> PartitionedEconomyEngine:
    engine = getattr(scheme, "engine", None)
    if not isinstance(engine, PartitionedEconomyEngine):
        raise DistCacheError(
            f"scheme {scheme.name!r} is not running a partitioned engine")
    return engine


def _resident(resident_key: ResidentKey) -> CachingScheme:
    try:
        return _RESIDENT[resident_key]
    except KeyError:
        raise DistCacheError(
            f"cache partition {resident_key[1]} of run {resident_key[0]} "
            f"is not resident in this process") from None


def _apply_barrier_outputs(scheme: CachingScheme,
                           outputs: BarrierOutputs) -> None:
    """Fold the previous barrier's outputs into a resident partition.

    A delta folds onto the snapshot this partition holds, so the version
    check of :meth:`CrossShardDirectory.apply_delta` runs against the
    state the partition actually priced with.
    """
    engine = _engine_of(scheme)
    cache = engine.partitioned_cache
    if outputs.partitioner is not None:
        cache.set_partitioner(outputs.partitioner)
    if outputs.forwarded_regret:
        engine.absorb_forwarded_regret(outputs.forwarded_regret)
    directory = outputs.directory
    if isinstance(directory, DirectoryDelta):
        directory = cache.directory.apply_delta(directory)
    if directory is not None:
        cache.set_directory(directory)
    if outputs.sample is not None:
        _sample_partition(scheme, engine, *outputs.sample)


def _sample_partition(scheme: CachingScheme,
                      engine: PartitionedEconomyEngine, time_s: float,
                      epoch: int, final: bool) -> None:
    """Take one barrier's metrics sample off the partition's collector
    (read-only), so the per-epoch counter deltas pair with the gauges."""
    from repro.obs.metrics import metrics_part

    collector = metrics_part(engine.trace)
    if collector is None:
        return
    collector.sample(
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
    """Replay one partition's slice of one epoch where the partition lives.

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
    if task.scheme is not None:
        _RESIDENT[task.resident_key] = task.scheme
    scheme = _resident(task.resident_key)
    _apply_barrier_outputs(scheme, task.inbound)
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
        steps=tuple(log.steps),
        maintenance=tuple(log.maintenance),
        report=_barrier_report(_engine_of(scheme)),
        eviction_losses=tuple(log.eviction_losses),
    )


def _hand_off(resident_key: ResidentKey, keys: Tuple[str, ...]
              ) -> Tuple[MovedEntries, Snapshot]:
    """Release handed-off entries, each with its in-flight regret.

    Returns the entries in ``keys`` order and the snapshot left behind.
    """
    engine = _engine_of(_resident(resident_key))
    cache = engine.partitioned_cache
    moved = tuple((cache.extract_entry(key), engine.surrender_regret(key))
                  for key in keys)
    return moved, cache.snapshot()


def _take_over(resident_key: ResidentKey, partitioner: StructurePartitioner,
               moved: MovedEntries, now: float) -> Snapshot:
    """Install handed-off entries under the new override table; returns
    the snapshot after the installs."""
    engine = _engine_of(_resident(resident_key))
    cache = engine.partitioned_cache
    cache.set_partitioner(partitioner)
    for entry, regret in moved:
        cache.install_entry(entry, now=now)
        engine.adopt_regret(entry.structure, regret)
    return cache.snapshot()


def _release(resident_key: ResidentKey,
             outputs: BarrierOutputs) -> CachingScheme:
    """Apply the final barrier's outputs and hand the scheme back."""
    scheme = _resident(resident_key)
    _apply_barrier_outputs(scheme, outputs)
    del _RESIDENT[resident_key]
    return scheme


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


class _PartitionHosts:
    """The processes holding one run's partitions.

    With one worker every partition lives in this process; with more,
    partition ``p`` lives in the single-process pool ``p % workers`` for
    the whole run, so a call always reaches the process that holds the
    partition's state. Pools fork from this process (the platform
    default) when first called.

    A failed call — an exception escaping it, or a worker process that
    died — raises an error naming the partition, the epoch, and the
    cell's config hash. Library errors keep their type, so callers that
    catch one still do; anything else becomes a :class:`DistCacheError`.
    """

    def __init__(self, resident_keys: Sequence[ResidentKey], workers: int,
                 cell_hash: str) -> None:
        self._keys = tuple(resident_keys)
        self._cell_hash = cell_hash
        self._pools: List[ProcessPoolExecutor] = []
        if workers > 1:
            self._pools = [ProcessPoolExecutor(max_workers=1)
                           for _ in range(workers)]

    def call(self, epoch: int,
             calls: Sequence[Tuple[int, Callable, tuple]]) -> List:
        """Run each ``(partition, fn, args)`` where the partition lives.

        Calls on different workers run side by side; results come back
        in call order.
        """
        if not self._pools:
            return [self._checked(partition, epoch, fn, *args)
                    for partition, fn, args in calls]
        futures = [
            (partition, self._checked(
                partition, epoch,
                self._pools[partition % len(self._pools)].submit, fn, *args))
            for partition, fn, args in calls]
        return [self._checked(partition, epoch, future.result)
                for partition, future in futures]

    def _checked(self, partition: int, epoch: int, fn: Callable, *args):
        return call_naming_failures(
            lambda: (f"cache partition {partition}, epoch {epoch}, cell "
                     f"config {self._cell_hash}"),
            DistCacheError, fn, *args)

    def close(self) -> None:
        """Shut the pools down and drop what this process still holds."""
        for pool in self._pools:
            pool.shutdown(cancel_futures=True)
        for key in self._keys:
            _RESIDENT.pop(key, None)


class DistCacheRunner:
    """Runs tenant cells in partitioned-cache mode.

    Args:
        partition_count: cache partitions per cell.
        max_workers: processes holding the partitions; partition ``p``
            stays in worker ``p % max_workers`` for the whole cell (1 =
            every partition in this process).
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
    """

    def __init__(self, partition_count: int, max_workers: int = 1,
                 remote: RemoteAccessModel = RemoteAccessModel(),
                 compare_baseline: bool = True,
                 placement: str = "hash",
                 handoff_threshold: float = 0.0,
                 anchor_period: int = DEFAULT_ANCHOR_PERIOD,
                 trace=None, metrics=None) -> None:
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
        # Observability sinks (duck-typed TraceRecorder); None = disabled.
        # Per-partition recorders live on the engines, stay resident with
        # them, and are absorbed into these collectors when the schemes
        # come back at the end of the cell. The partition kernels get no
        # observers, so the barriers double as the metrics sampler: each
        # partition samples its engine once a barrier is fully applied,
        # exactly where a kernel run's settlement observer would fire.
        self._trace = trace
        self._metrics = metrics

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
        if config.warmup_queries:
            raise DistCacheError(
                "partitioned mode does not support warmup_queries")
        from repro.obs.manifest import config_hash

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
        if self._trace is not None or self._metrics is not None:
            # Per-partition recorders stay resident with their schemes;
            # absorbed once the schemes come back after the last barrier.
            from repro.obs.metrics import MetricsTimeseries, combined_recorder
            from repro.obs.trace import TraceRecorder

            for index, scheme in enumerate(schemes):
                source = f"partition{index}"
                _engine_of(scheme).attach_trace(combined_recorder(
                    TraceRecorder(source=source)
                    if self._trace is not None else None,
                    MetricsTimeseries(source=source)
                    if self._metrics is not None else None,
                ))
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
        run_id = next(_RUN_IDS)
        resident_keys = [(run_id, partition) for partition in partitions]
        inbound = [BarrierOutputs()] * self.partition_count
        steps: List[List[SchemeStep]] = [[] for _ in partitions]
        maintenance: List[List[Tuple[float, float]]] = [[] for _ in partitions]
        kernel_losses: List[List[float]] = [[] for _ in partitions]
        checkpoints: List[PartitionCheckpoint] = []
        handoffs: List[HandoffRecord] = []
        publications: List[DirectoryPublication] = []
        directory = CrossShardDirectory.empty()

        hosts = _PartitionHosts(
            resident_keys, min(self._max_workers, self.partition_count),
            config_hash(config))
        try:
            for epoch, (barrier, (epoch_arrivals, shocks)) in enumerate(
                    zip(barriers, epochs)):
                number = epoch + 1
                is_final = epoch == len(barriers) - 1
                epoch_start = barriers[epoch - 1] if epoch else start_s
                # Every partition receives its routed queries plus every
                # lifecycle marker (each registry books the whole
                # population) and every shock (a shock hits the whole
                # market).
                routed: List[List[Arrival]] = [[] for _ in partitions]
                for item in epoch_arrivals:
                    if isinstance(item, Query):
                        routed[self._router.partition_of(item)].append(item)
                    else:
                        for queue in routed:
                            queue.append(item)
                tasks = [PartitionEpochTask(
                    resident_key=resident_keys[partition],
                    epoch=number,
                    start_s=epoch_start,
                    settle_to_s=barrier,
                    arrivals=tuple(routed[partition]),
                    shocks=tuple(shocks),
                    inbound=inbound[partition],
                    scheme=schemes[partition] if epoch == 0 else None,
                ) for partition in partitions]
                # The processes holding the partitions own the schemes
                # from here on; they come back after the last barrier.
                schemes = []
                results: List[PartitionEpochResult] = hosts.call(
                    number, [(partition, run_partition_epoch, (task,))
                             for partition, task in zip(partitions, tasks)])

                for partition, result in enumerate(results):
                    steps[partition].extend(result.steps)
                    maintenance[partition].extend(result.maintenance)
                    kernel_losses[partition].extend(result.eviction_losses)
                reports = [result.report for result in results]
                snapshots = dict(enumerate(
                    report.snapshot for report in reports))

                applied: List[HandoffRecord] = []
                if policy is not None:
                    applied = self._apply_handoffs(
                        hosts, resident_keys, reports, snapshots, policy,
                        epoch=number, now=barrier)
                    handoffs.extend(applied)
                forwarded = self._route_regret(reports)
                directory, delta, publication = self._publish_directory(
                    snapshots, number, previous=directory)
                publications.append(publication)
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
                inbound = [BarrierOutputs(
                    directory=directory if publication.anchored else delta,
                    forwarded_regret=forwarded[partition],
                    partitioner=(self._partitioner if policy is not None
                                 else None),
                    sample=((barrier, number, is_final)
                            if self._metrics is not None else None),
                ) for partition in partitions]
                if self._trace is not None:
                    self._trace.span(
                        "settlement_barrier", start_s=epoch_start,
                        end_s=barrier, epoch=number,
                        directory_entries=len(directory),
                        directory_delta_bytes=publication.delta_bytes,
                        handoffs_applied=len(applied), final=is_final)
                    for record in applied:
                        self._trace.event(
                            "handoff", time_s=barrier, key=record.key,
                            from_partition=record.from_partition,
                            to_partition=record.to_partition)
                if self._metrics is not None:
                    self._metrics.sample(
                        time_s=barrier, epoch=number, final=is_final,
                        directory_entries=len(directory),
                        directory_delta_bytes=publication.delta_bytes,
                        handoffs_applied=len(applied),
                    )
            schemes = hosts.call(len(barriers), [
                (partition, _release,
                 (resident_keys[partition], inbound[partition]))
                for partition in partitions])
        finally:
            hosts.close()

        if min(len(served) for served in steps) == 0:
            warnings.warn(
                f"cache partition count {self.partition_count} exceeds the "
                f"workload's busy template count; some cache partitions "
                f"serve no queries",
                PartitionImbalanceWarning,
                stacklevel=2,
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
        if self._trace is not None or self._metrics is not None:
            from repro.obs.metrics import metrics_part, trace_part

            for partition, scheme in enumerate(schemes):
                engine = _engine_of(scheme)
                if self._trace is not None:
                    self._trace.event(
                        "partition_summary", time_s=end_s,
                        partition=partition,
                        queries_served=len(steps[partition]),
                        remote_hits=engine.remote_hits,
                        remote_surcharge_dollars=engine.remote_dollars,
                        peak_cache_bytes=(
                            engine.partitioned_cache.peak_disk_used_bytes))
                    part = trace_part(engine.trace)
                    if part is not None:
                        self._trace.absorb(part)
                if self._metrics is not None:
                    part = metrics_part(engine.trace)
                    if part is not None:
                        self._metrics.absorb(part)
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

    def run_cells(self, configs: Sequence[TenantExperimentConfig]
                  ) -> List[DistCacheCellReport]:
        """Run many cells (sequentially; partitions parallelise within)."""
        cells = list(configs)
        if not cells:
            raise DistCacheError("at least one tenant cell is required")
        return [self.run_cell(config) for config in cells]

    # -- barrier work ----------------------------------------------------------

    def _apply_handoffs(self, hosts: _PartitionHosts,
                        resident_keys: Sequence[ResidentKey],
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

        1. the ownership-override table is extended (one shared
           :class:`StructurePartitioner`, so directory checks, admission
           guards, and regret routing all flip together; partitions
           outside the exchange receive it before their next epoch);
        2. every old owner releases its handed-off
           :class:`~repro.cache.storage.CacheEntry` objects — billing
           watermark, usage recency, amortisation state — without an
           eviction record, each with its in-flight regret;
        3. every new owner installs them under the new table and adopts
           the regret.

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

        self._partitioner = self._partitioner.with_overrides(
            {decision.key: decision.to_partition for decision in decisions})
        outgoing: Dict[int, List[str]] = {}
        for decision in decisions:
            outgoing.setdefault(decision.from_partition, []).append(
                decision.key)
        released = hosts.call(epoch, [
            (partition, _hand_off, (resident_keys[partition], tuple(keys)))
            for partition, keys in outgoing.items()])
        moved: Dict[str, Tuple[CacheEntry, float]] = {}
        for (partition, keys), (entries, snapshot) in zip(outgoing.items(),
                                                          released):
            moved.update(zip(keys, entries))
            snapshots[partition] = snapshot
        incoming: Dict[int, List[Tuple[CacheEntry, float]]] = {}
        for decision in decisions:
            incoming.setdefault(decision.to_partition, []).append(
                moved[decision.key])
        installed = hosts.call(epoch, [
            (partition, _take_over,
             (resident_keys[partition], self._partitioner, tuple(entries),
              now))
            for partition, entries in incoming.items()])
        snapshots.update(zip(incoming, installed))
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


def run_partitioned_cell(config: TenantExperimentConfig,
                         partitions: int,
                         max_workers: int = 1,
                         remote: RemoteAccessModel = RemoteAccessModel(),
                         compare_baseline: bool = True,
                         placement: str = "hash",
                         handoff_threshold: float = 0.0,
                         anchor_period: int = DEFAULT_ANCHOR_PERIOD,
                         trace=None, metrics=None) -> DistCacheCellReport:
    """Run one tenant cell in partitioned-cache mode (convenience wrapper)."""
    runner = DistCacheRunner(partitions, max_workers=max_workers,
                             remote=remote, compare_baseline=compare_baseline,
                             placement=placement,
                             handoff_threshold=handoff_threshold,
                             anchor_period=anchor_period,
                             trace=trace, metrics=metrics)
    return runner.run_cell(config)


def run_partitioned_experiment(configs: Sequence[TenantExperimentConfig],
                               partitions: int,
                               jobs: int = 1,
                               remote: RemoteAccessModel = RemoteAccessModel(),
                               compare_baseline: bool = True,
                               placement: str = "hash",
                               handoff_threshold: float = 0.0,
                               anchor_period: int = DEFAULT_ANCHOR_PERIOD,
                               trace=None,
                               metrics=None) -> List[DistCacheCellReport]:
    """Run many cells partitioned; ``jobs`` sizes each cell's worker set."""
    runner = DistCacheRunner(partitions, max_workers=jobs, remote=remote,
                             compare_baseline=compare_baseline,
                             placement=placement,
                             handoff_threshold=handoff_threshold,
                             anchor_period=anchor_period,
                             trace=trace, metrics=metrics)
    return runner.run_cells(configs)
