"""The multi-tenant population experiment: any scheme over N tenants.

One cell = one scheme replayed over a Zipf-skewed, optionally churning
tenant population. Cells are independent — each rebuilds its system,
population, and registry deterministically from the frozen config — so a
multi-scheme run fans out over a ``ProcessPoolExecutor`` exactly like the
figure grids, and the parallel tables are byte-identical to sequential
ones. With ``shards > 1`` each cell is additionally split into tenant
shards executed through :mod:`repro.sharding` and merged exactly, which
is byte-identical too. (The other scaling mode — partitioning the cache
and provider economy themselves, with explicitly different semantics —
lives in :mod:`repro.distcache` and is reached through the CLI's
``--cache-partitions`` or :func:`repro.distcache.run_partitioned_cell`.)

The per-tenant outputs join two sources: the step records (queries, cache
hits, charges — available for every scheme) and the tenant registry
(wallet balances, per-tenant regret — available for the econ-* schemes,
whose engine runs the multi-tenant economy).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple, Union)

from repro.economy.engine import EconomyConfig, PLANNING_MODES, PLANNING_SCALAR
from repro.economy.tenancy import TenantRegistry
from repro.errors import ExperimentError, map_naming_failures
from repro.experiments.reporting import distribution_cells, format_table
from repro.policies.economic import EconomicSchemeConfig
from repro.policies.factory import SCHEME_NAMES
from repro.simulator.metrics import MetricsSummary, TenantBreakdown
from repro.simulator.results import SimulationResult
# The kernel assembly itself: only a tenant cell hands it a lazy stream.
from repro.simulator.simulation import SimulationConfig, _run_tenants
from repro.system import CloudSystem
from repro.workload.generator import (
    ArrivalEnvelope,
    WorkloadGenerator,
    WorkloadSpec,
)
from repro.workload.grammar import (
    ScenarioGrammar,
    ShockSpec,
    TenantTier,
    compile_shock_events_for_span,
)
# apply_tenant_tiers stays importable here: benchmarks/e2e times it.
from repro.workload.grammar import apply_tenant_tiers  # noqa: F401
from repro.workload.population import (
    GenerativeProfileSource,
    PopulationSpec,
    PopulationStream,
    TenantLifecycleMarker,
    TenantPopulation,
)
from repro.workload.query import Query

#: Arrival modes: ``eager`` materialises the population stream up front;
#: ``streamed`` reads it as the run goes, bounding memory by the
#: concurrently live tenants instead of the workload. Both run the same
#: registry over the same stream, so the outputs are byte-identical; the
#: mode is a materialisation choice only.
ARRIVAL_EAGER = "eager"
ARRIVAL_STREAMED = "streamed"
ARRIVAL_MODES = (ARRIVAL_EAGER, ARRIVAL_STREAMED)


@dataclass(frozen=True)
class TenantExperimentConfig:
    """One population cell: a scheme plus the workload/population shape.

    Frozen (hashable, picklable) so cells can ship to worker processes.
    """

    scheme: str = "econ-cheap"
    tenant_count: int = 100
    query_count: int = 400
    interarrival_s: float = 10.0
    seed: int = 0
    zipf_exponent: float = 1.1
    initial_credit: float = 50.0
    budget_sigma: float = 0.0
    churn_period: int = 0
    churn_fraction: float = 0.1
    warmup_queries: int = 0
    settlement_period_s: Optional[float] = None
    planning: str = PLANNING_SCALAR
    shocks: Tuple[ShockSpec, ...] = ()
    tenant_tiers: Tuple[TenantTier, ...] = ()
    strict_maintenance: bool = False
    grammar: Optional[ScenarioGrammar] = None
    arrival_mode: str = ARRIVAL_EAGER

    def __post_init__(self) -> None:
        if self.scheme not in SCHEME_NAMES:
            raise ExperimentError(
                f"unknown scheme {self.scheme!r}; expected one of "
                f"{', '.join(SCHEME_NAMES)}"
            )
        if self.query_count <= 0:
            raise ExperimentError("query_count must be positive")
        if self.settlement_period_s is not None and not self.settlement_period_s > 0:
            raise ExperimentError("settlement_period_s must be positive")
        if self.planning not in PLANNING_MODES:
            raise ExperimentError(
                f"planning must be one of {PLANNING_MODES}, "
                f"got {self.planning!r}"
            )
        if self.arrival_mode not in ARRIVAL_MODES:
            raise ExperimentError(
                f"arrival_mode must be one of {ARRIVAL_MODES}, "
                f"got {self.arrival_mode!r}"
            )

    def population_spec(self) -> PopulationSpec:
        """The population half of the configuration."""
        return PopulationSpec(
            tenant_count=self.tenant_count,
            zipf_exponent=self.zipf_exponent,
            initial_credit=self.initial_credit,
            budget_sigma=self.budget_sigma,
            churn_period=self.churn_period,
            churn_fraction=self.churn_fraction,
            seed=self.seed,
        )

    def workload_spec(self) -> WorkloadSpec:
        """The workload half of the configuration."""
        return WorkloadSpec(
            query_count=self.query_count,
            interarrival_s=self.interarrival_s,
            seed=self.seed,
        )


@dataclass(frozen=True)
class TenantCellResult:
    """Everything one population cell produced.

    ``population_size`` counts every tenant ever minted; ``churn_waves``
    counts churned tenants, not waves (the table's "churn waves" row
    prints it under that label).
    """

    config: TenantExperimentConfig
    summary: MetricsSummary
    tenants: Tuple[TenantBreakdown, ...]
    wallet_credit: Tuple[Tuple[str, float], ...]
    population_size: int
    churn_waves: int

    def wallet_by_tenant(self) -> Dict[str, float]:
        """Wallet balances as a dict (empty for schemes with no registry)."""
        return dict(self.wallet_credit)


class CellArrivals(NamedTuple):
    """A cell's arrivals, assembled once for every execution mode.

    Attributes:
        source: the population's generative profile source.
        envelope: the arrival span, known before any query exists.
        population: the population stream (its shape counters fill in as
            it is read).
        items: what the run reads — the stream itself when streamed, its
            materialised list when eager.
    """

    source: GenerativeProfileSource
    envelope: ArrivalEnvelope
    population: PopulationStream
    items: Iterable[Union[Query, TenantLifecycleMarker]]


def cell_arrivals(config: TenantExperimentConfig) -> CellArrivals:
    """The one arrival assembly of the plain, sharded and partitioned cells.

    The population stream runs over the generator's queries (or the
    grammar's compiled query list, with its weighted classes and flash
    crowds) and mints tiered profiles through the generative source, so
    every mode sees the identical population. ``config.arrival_mode`` only
    decides whether the stream is materialised up front (``eager``) or
    read as the run goes (``streamed``).
    """
    source = GenerativeProfileSource(spec=config.population_spec(),
                                     tiers=config.tenant_tiers)
    if config.grammar is not None:
        queries = config.grammar.compile(
            query_count=config.query_count,
            interarrival_s=config.interarrival_s,
            seed=config.seed,
        ).queries
        envelope = ArrivalEnvelope.of(queries)
    else:
        generator = WorkloadGenerator(config.workload_spec())
        queries = generator.iter_queries()
        envelope = generator.arrival_envelope()
    population = TenantPopulation(source.spec).stream(queries, source=source)
    items = (population if config.arrival_mode == ARRIVAL_STREAMED
             else list(population))
    return CellArrivals(source, envelope, population, items)


class TenantCell:
    """One population cell assembled for a single run.

    :func:`run_tenant_cell`, the audited shock cell and the shard worker
    all assemble their run here, over :func:`cell_arrivals`. The tables
    are byte-identical in either arrival mode. The bypass baseline has no
    economy, so it gets no registry.

    Args:
        config: the frozen cell configuration.
        registry_factory: ``factory(source)`` returning the econ-* schemes'
            tenant registry over the population's profile source.
    """

    def __init__(self, config: TenantExperimentConfig,
                 registry_factory: Callable[[GenerativeProfileSource],
                                            TenantRegistry]
                 = TenantRegistry) -> None:
        self.config = config
        arrivals = cell_arrivals(config)
        self.envelope = arrivals.envelope
        self.population = arrivals.population
        self._arrivals = arrivals.items
        system = CloudSystem()
        self.registry: Optional[TenantRegistry] = None
        if config.scheme == "bypass":
            self.scheme = system.scheme(config.scheme)
        else:
            self.registry = registry_factory(arrivals.source)
            self.scheme = system.scheme(
                config.scheme, economic_config=EconomicSchemeConfig(
                    economy=EconomyConfig(
                        planning=config.planning,
                        strict_maintenance=config.strict_maintenance,
                    ),
                    tenants=self.registry,
                )
            )

    def run(self, observers: Sequence = (),
            recorder=None) -> SimulationResult:
        """Run the cell once (a streamed cell's arrivals are single-use).

        ``observers`` are extra read-only ``(event type, handler)`` pairs;
        ``recorder`` (a :class:`~repro.obs.trace.TraceRecorder`) attaches
        under the zero-perturbation contract: the result stays
        byte-identical to the unobserved run.
        """
        config = self.config
        observers = list(observers)
        if recorder is not None:
            from repro.obs.metrics import attach_observability

            # Streamed runs also gauge the process peak RSS: the memory
            # bound is the point of that mode (which is why streamed
            # metrics files are not byte-reproducible run to run — the
            # rendered tables still are).
            observers.extend(attach_observability(
                self.scheme, recorder,
                rss=config.arrival_mode == ARRIVAL_STREAMED))
        envelope = self.envelope
        results = _run_tenants(
            [self.scheme], self._arrivals, envelope,
            SimulationConfig(warmup_queries=config.warmup_queries,
                             settlement_period_s=config.settlement_period_s),
            observers=observers,
            shock_events=compile_shock_events_for_span(
                config.shocks, envelope.start_s, envelope.last_s),
        )
        return results[self.scheme.name]

    def outcome(self, result: SimulationResult) -> TenantCellResult:
        """The cell result of a finished :meth:`run`."""
        wallets: Tuple[Tuple[str, float], ...] = ()
        if self.registry is not None:
            wallets = tuple(self.registry.credit_by_tenant().items())
        return TenantCellResult(
            config=self.config,
            summary=result.summary,
            tenants=sorted_breakdowns(result.steps),
            wallet_credit=wallets,
            population_size=self.population.tenant_count,
            churn_waves=self.population.churn_waves,
        )


def run_tenant_cell(config: TenantExperimentConfig,
                    recorder=None) -> TenantCellResult:
    """Run one scheme over one populated workload (see :class:`TenantCell`).

    ``recorder`` attaches under the zero-perturbation contract
    (:meth:`TenantCell.run`).
    """
    cell = TenantCell(config)
    return cell.outcome(cell.run(recorder=recorder))


def sorted_breakdowns(steps) -> Tuple[TenantBreakdown, ...]:
    """Per-tenant breakdowns, busiest tenant first (ties by id).

    The ``(-query_count, tenant_id)`` key is a *total* order (ids are
    unique), so any disjoint union of per-tenant breakdowns re-sorts to
    the same sequence — the property the sharded merge relies on.
    """
    from repro.simulator.metrics import breakdown_by_tenant

    breakdowns = breakdown_by_tenant(steps)
    return tuple(sorted(
        breakdowns.values(),
        key=lambda item: (-item.query_count, item.tenant_id),
    ))


def run_tenant_experiment(configs: Sequence[TenantExperimentConfig],
                          jobs: Optional[int] = None,
                          shards: Optional[int] = None,
                          recorder=None) -> List[TenantCellResult]:
    """Run many population cells, optionally fanned over worker processes.

    Args:
        configs: the cells to run (typically one per scheme).
        jobs: worker processes; ``None`` or 1 runs sequentially. Results
            come back in ``configs`` order either way, and each cell is
            deterministic, so the parallel path is byte-identical.
        shards: when > 1, each cell is additionally split into this many
            tenant shards executed through :mod:`repro.sharding` and merged
            exactly; the merged cells are byte-identical to the unsharded
            ones. ``jobs`` then sizes the process pool the ``cells x
            shards`` tasks share.
        recorder: optional :class:`~repro.obs.trace.TraceRecorder` the
            whole experiment records into. Sharded cells run per-shard
            recorders, merged at the barriers and absorbed into it; the
            unsharded observed path runs its cells in this process so
            they record into the one recorder — the cell *results* are
            identical either way.
    """
    cells = list(configs)
    if not cells:
        raise ExperimentError("at least one tenant cell is required")
    worker_count = 1 if jobs is None else int(jobs)
    if worker_count < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    shard_count = 1 if shards is None else int(shards)
    if shard_count < 1:
        raise ExperimentError(f"shards must be >= 1, got {shards}")
    if shard_count > 1:
        # Imported lazily: repro.sharding builds on this module.
        from repro.sharding import ShardCoordinator

        coordinator = ShardCoordinator(shard_count, max_workers=worker_count,
                                       recorder=recorder)
        return [report.cell for report in coordinator.run_cells(cells)]
    run = run_tenant_cell
    if recorder is not None:
        # Observed cells run here, all recording into the one recorder.
        run = functools.partial(run_tenant_cell, recorder=recorder)
        worker_count = 1
    return map_naming_failures(run, cells, worker_count, cell_label,
                               ExperimentError)


def cell_label(config: TenantExperimentConfig) -> str:
    """How a failure names a cell: its scheme and config hash."""
    from repro.obs.manifest import config_hash

    return f"tenant cell {config.scheme}, cell config {config_hash(config)}"


# -- tables --------------------------------------------------------------------


def tenant_aggregate_table(result: TenantCellResult) -> str:
    """The per-tenant aggregate table of one cell (credit, hit rate, load)."""
    config = result.config
    hit_rates = [item.cache_hit_rate for item in result.tenants]
    loads = [float(item.query_count) for item in result.tenants]
    charges = [item.total_charge for item in result.tenants]
    rows: List[List[object]] = [
        ["tenants ever active", result.population_size, "", ""],
        ["tenants with traffic", len(result.tenants), "", ""],
        ["churn waves", result.churn_waves, "", ""],
        ["queries/tenant"] + distribution_cells(loads),
        ["cache hit rate"] + distribution_cells(hit_rates),
        ["charge/tenant"] + distribution_cells(charges),
    ]
    wallets = [credit for _, credit in result.wallet_credit]
    if wallets:
        rows.append(["wallet credit"] + distribution_cells(wallets))
    title = (f"Tenants - {config.scheme} x {config.tenant_count} tenants "
             f"({config.query_count} queries)")
    return format_table(["metric", "mean", "min", "max"], rows, title=title)


def top_tenant_table(result: TenantCellResult, limit: int = 10) -> str:
    """The busiest ``limit`` tenants of one cell, one row each."""
    wallets = result.wallet_by_tenant()
    headers = ["tenant", "queries", "hit_rate", "charge", "profit", "credit"]
    rows: List[List[object]] = []
    for item in result.tenants[:limit]:
        credit = wallets.get(item.tenant_id)
        rows.append([
            item.tenant_id,
            item.query_count,
            item.cache_hit_rate,
            item.total_charge,
            item.total_profit,
            credit if credit is not None else "-",
        ])
    return format_table(
        headers, rows,
        title=f"Top {min(limit, len(result.tenants))} tenants by traffic",
    )
