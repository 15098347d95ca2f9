"""The economy engine: one object that processes queries end to end.

For every incoming query the engine

1. lets structures whose unpaid maintenance grew too large fail (footnote 3),
2. enumerates and prices the candidate plans against the cache state,
3. applies the skyline filter of footnote 2,
4. builds the user's budget function and negotiates a plan (cases A/B/C),
5. settles the money flows (user payment in, execution cost out, structure
   usage, maintenance recovery, amortisation recovery),
6. distributes the regret of the plans that were not chosen to the
   structures they are missing, and
7. evaluates the investment rule (Eq. 3), building structures whose regret
   justifies it and whose build cost the account can afford.

The rules behind steps 3, 4, 6 and 7 are pure functions
(:mod:`repro.economy.decisions`, :func:`~repro.economy.negotiation.negotiate`,
:class:`~repro.economy.investment.InvestmentPolicy`); the engine applies
what they return, on both planning paths and on any cache. A partitioned
cache (:mod:`repro.distcache`) only changes their inputs: who owns a key
and what other partitions advertise.

The engine is scheme-agnostic: the four caching schemes of Section VII are
thin configurations of this engine (or, for the bypass-yield baseline, a
different decision procedure entirely — see :mod:`repro.policies`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Tuple)

from repro import constants
from repro.cache.manager import CacheConfig, CacheManager
from repro.cache.storage import EvictionRecord
from repro.costmodel.amortization import AmortizationPolicy, UniformAmortization
from repro.costmodel.build import StructureCostModel
from repro.costmodel.execution import ExecutionCostModel
from repro.economy.account import CloudAccount
from repro.economy.batch import BatchScheduler
from repro.economy.budget import BudgetFunction
from repro.economy.decisions import (
    RemoteAccessModel,
    Surcharge,
    attribute_regret,
    budget_reference,
    build_pieces,
    offer_rows,
    remote_priced,
    remote_terms,
    with_surcharge,
)
from repro.economy.investment import InvestmentPolicy
from repro.economy.negotiation import (
    NegotiationCase,
    NegotiationResult,
    PlanSelection,
    negotiate,
)
from repro.economy.pricing import PlanPricer, PricedPlan
from repro.economy.regret import RegretTracker
from repro.economy.tenancy import TenantRegistry
from repro.economy.user_model import UserModel
from repro.errors import ConfigurationError, PlanningError
from repro.planner.enumerator import PlanEnumerator
from repro.planner.plan import PlanKind, QueryPlan
from repro.planner.plan_table import PlanTable, PlanTableCache
from repro.planner.skyline import skyline_filter, skyline_indices
from repro.structures.base import CacheStructure, StructureKind
from repro.workload.query import Query

#: Planning-mode names accepted by :attr:`EconomyConfig.planning` (and by
#: ``TenantExperimentConfig.planning``).
PLANNING_SCALAR = "scalar"
PLANNING_BATCHED = "batched"
PLANNING_MODES = (PLANNING_SCALAR, PLANNING_BATCHED)

#: A regretted plan as regret distribution reads it: the structures it
#: needs that are not built yet, and its regret.
RegretPair = Tuple[Tuple[CacheStructure, ...], float]


@dataclass(frozen=True)
class EconomyConfig:
    """Tunables of the economy engine.

    Attributes:
        regret_fraction: ``a`` of Eq. 3.
        amortization_horizon: ``n`` of Eq. 7 for the default uniform policy.
        initial_credit: working capital the provider starts with; the paper's
            cloud has been operating long before the measured window, so a
            non-zero float makes short simulations representative.
        divide_regret: whether a plan's regret is split equally over its
            missing structures (True) or charged in full to each (False,
            the default — Section IV-C adds the regret "to the positions in
            regretS that correspond to the S employed by PQ").
        plan_selection: how the chosen plan is picked in cases B/C.
        require_affordable_build: the "conservative provider" rule — only
            build when the account can pay the full build cost.
        max_investments_per_query: cap on how many structures are built in
            response to a single query, keeping per-query work bounded.
        regret_pool_capacity: LRU bound on the number of structures tracked
            by the regret array (Section IV-B).
        user_model: how budget functions are derived for incoming queries.
        planning: ``"batched"`` (the default) lets a primed engine score
            whole arrival windows through the vectorized plan-table path
            (:mod:`repro.economy.batch`); ``"scalar"`` prices every query
            through the per-plan pipeline. Outcomes are bit-for-bit
            identical either way.
        strict_maintenance: the shutdown-priority policy — at every
            settlement, when maintenance accrued since the last
            enforcement exceeds the query-payment income earned over the
            same stretch, the lowest-benefit structures are shut down
            (evicted) until the books balance. Off by default: the
            paper's provider carries structures through lean periods.

    Example:
        >>> EconomyConfig().regret_fraction == 0.01
        True
        >>> EconomyConfig(amortization_horizon=0)
        Traceback (most recent call last):
            ...
        repro.errors.ConfigurationError: amortization_horizon must be positive
    """

    regret_fraction: float = constants.DEFAULT_REGRET_FRACTION
    amortization_horizon: int = constants.DEFAULT_AMORTIZATION_QUERIES
    initial_credit: float = constants.DEFAULT_INITIAL_CREDIT
    divide_regret: bool = False
    plan_selection: PlanSelection = PlanSelection.MIN_PROFIT
    require_affordable_build: bool = True
    max_investments_per_query: int = 8
    regret_pool_capacity: int = 512
    user_model: UserModel = field(default_factory=UserModel)
    planning: str = PLANNING_BATCHED
    strict_maintenance: bool = False

    def __post_init__(self) -> None:
        if self.amortization_horizon <= 0:
            raise ConfigurationError("amortization_horizon must be positive")
        if self.initial_credit < 0:
            raise ConfigurationError("initial_credit must be non-negative")
        if self.max_investments_per_query < 0:
            raise ConfigurationError("max_investments_per_query must be non-negative")
        if self.regret_pool_capacity <= 0:
            raise ConfigurationError("regret_pool_capacity must be positive")
        if self.planning not in PLANNING_MODES:
            raise ConfigurationError(
                f"planning must be one of {PLANNING_MODES}, got {self.planning!r}"
            )


@dataclass(frozen=True)
class StructureBuild:
    """Record of one investment made by the engine."""

    key: str
    kind: StructureKind
    build_cost: float
    built_at: float
    triggered_by_query: int


@dataclass(frozen=True)
class QueryOutcome:
    """Everything the simulator needs to know about one processed query.

    ``uncovered_costs`` surfaces withdrawals the account could not fully
    honour: each entry is a ``(ledger category, shortfall)`` pair for a
    payment that was capped at the available credit. An empty tuple means
    every cost of the query was paid in full.
    """

    query: Query
    case: NegotiationCase
    plan_kind: PlanKind
    plan_label: str
    served_in_cache: bool
    response_time_s: float
    charge: float
    profit: float
    execution_cost: float
    execution_cpu_dollars: float
    execution_io_dollars: float
    execution_network_dollars: float
    network_bytes: float
    maintenance_recovered: float
    builds: Tuple[StructureBuild, ...]
    build_spend: float
    evictions: Tuple[EvictionRecord, ...]
    eviction_losses: float
    credit_after: float
    tenant_id: str = "default"
    uncovered_costs: Tuple[Tuple[str, float], ...] = ()

    @property
    def uncovered_total(self) -> float:
        """Total dollars of withdrawals the credit could not cover."""
        return sum(amount for _, amount in self.uncovered_costs)


class _TablePricingState:
    """Batched pricing state of one plan table for one cache version.

    Between two cache-content changes, the charge of every *not-yet-built*
    structure is fixed (its build cost is memoized and it has served zero
    queries), and therefore so are the existing-plan flags. Only the
    currently built structures need re-pricing per query (their
    amortization advances with ``queries_served`` and their maintenance
    accrues with time), so the hot loop touches exactly those slots.

    Each row's amortized total is kept and re-summed only while ``stale``:
    when the state is new or a built charge moved. Under Eq. 7's uniform
    amortization a built structure's charge stays ``build_cost / n`` until
    its horizon, so that is rare.

    Each row's unbuilt structures are fixed too; they are memoized the
    first time they are read (:meth:`missing`).

    On a partitioned cache, a row pays the access surcharge of each
    unbuilt structure another partition advertises instead of amortising
    it (:meth:`advertise`, redone whenever the advertised entries change).
    Such a slot charges 0.0, which leaves every row total bit-identical to
    the sum over its other slots (totals are never ``-0.0``), and
    ``surcharges`` keeps each such row's summed
    :func:`~repro.economy.decisions.remote_terms`. Adding them to a row's
    execution figures is exact, as cache-plan rows carry
    ``network_dollars == 0.0``: ``(cpu + io) + (0.0 + dollars)`` is
    ``(cpu + io) + dollars``, bit for bit.
    """

    __slots__ = ("table", "version", "charges", "cached_flags", "maintenance",
                 "built", "existing", "row_totals", "stale", "row_missing",
                 "unbuilt_charges", "remote_version", "surcharges")

    def __init__(self, table: PlanTable, version: int, cache: CacheManager,
                 unbuilt_charge: Callable[[CacheStructure], float]) -> None:
        structures = table.unique_structures
        self.table = table
        self.version = version
        self.cached_flags = cached_flags = [cache.contains(structure.key)
                                            for structure in structures]
        # (slot, cache entry) per built slot, whose charge and maintenance
        # reprice_built sets on every query.
        self.built = [(slot, cache.entry(structures[slot].key))
                      for slot, cached in enumerate(cached_flags) if cached]
        self.unbuilt_charges = [
            0.0 if cached else unbuilt_charge(structure)
            for structure, cached in zip(structures, cached_flags)]
        self.maintenance = [0.0] * len(structures)
        self.row_totals = [0.0] * table.row_count
        self.row_missing = [None] * table.row_count
        self.advertise(0, None)

    def advertise(self, remote_version: int,
                  surcharge_of: Optional[Callable[[str], Optional[Surcharge]]]
                  ) -> None:
        """Price the unbuilt slots other partitions advertise (none while
        ``surcharge_of`` is ``None``) as remote accesses, and mark every
        row total stale."""
        self.remote_version = remote_version
        remote = [not cached and surcharge_of is not None
                  and surcharge_of(structure.key) is not None
                  for structure, cached in zip(self.table.unique_structures,
                                               self.cached_flags)]
        self.charges = [0.0 if remote_here else charge for remote_here, charge
                        in zip(remote, self.unbuilt_charges)]
        self.existing = [all(self.cached_flags[slot] or remote[slot]
                             for slot in row.structure_indices)
                         for row in self.table.rows]
        self.stale = True
        # Row index -> summed (dollars, seconds, shipped_bytes) of every
        # row with a remote structure, in row order.
        self.surcharges: Dict[int, Surcharge] = {}
        if any(remote):
            for row_index, row in enumerate(self.table.rows):
                surcharge = remote_terms(self.missing(row_index),
                                         surcharge_of)
                if surcharge is not None:
                    # Anything but a zero network leg would make adding
                    # the memoized surcharge inexact.
                    assert row.plan.execution.network_dollars == 0.0, \
                        row.plan.label
                    self.surcharges[row_index] = surcharge

    def missing(self, row_index: int) -> Tuple[CacheStructure, ...]:
        """The row's unbuilt structures in plan order (memoized): the
        tuple ``QueryPlan.new_structures`` returns for this cache version."""
        missing = self.row_missing[row_index]
        if missing is None:
            row = self.table.rows[row_index]
            missing = self.row_missing[row_index] = tuple(
                structure for slot, structure
                in zip(row.structure_indices, row.plan.structures)
                if not self.cached_flags[slot])
        return missing

    def reprice_built(self, amortization: AmortizationPolicy,
                      now: float) -> None:
        """Re-price the built slots at ``now`` and refresh stale row totals.

        Charges are never negative or NaN, so ``!=`` detects every move.
        """
        charges = self.charges
        maintenance = self.maintenance
        stale = self.stale
        for slot, entry in self.built:
            charge = min(amortization.charge(entry.build_cost,
                                             entry.queries_served),
                         entry.unrecovered_build_cost())
            if charge != charges[slot]:
                stale = True
            charges[slot] = charge
            maintenance[slot] = entry.accrued_maintenance(now)
        if stale:
            # Accumulate in plan-structure order — the scalar pricer's
            # addition order — so the float sums match bitwise.
            row_totals = self.row_totals
            for row_index, row in enumerate(self.table.rows):
                total = 0.0
                for slot in row.structure_indices:
                    total += charges[slot]
                row_totals[row_index] = total
            self.stale = False


class _RowCandidate:
    """One offered row as negotiation reads it (a ``NegotiablePlan``)."""

    __slots__ = ("price", "response_time_s", "is_existing", "row")

    def __init__(self, price: float, response_time_s: float,
                 is_existing: bool, row: int) -> None:
        self.price = price
        self.response_time_s = response_time_s
        self.is_existing = is_existing
        self.row = row


class EconomyEngine:
    """Processes queries through the self-tuned economy."""

    def __init__(self, enumerator: PlanEnumerator,
                 structure_costs: StructureCostModel,
                 cache: Optional[CacheManager] = None,
                 config: EconomyConfig = EconomyConfig(),
                 amortization: Optional[AmortizationPolicy] = None,
                 tenants: Optional[TenantRegistry] = None) -> None:
        self._enumerator = enumerator
        self._structure_costs = structure_costs
        self._cache = cache if cache is not None else CacheManager(CacheConfig())
        self._config = config
        self._amortization = amortization or UniformAmortization(
            config.amortization_horizon
        )
        self._pricer = PlanPricer(structure_costs, self._amortization)
        self._account = CloudAccount(initial_credit=config.initial_credit)
        self._regret = RegretTracker(pool_capacity=config.regret_pool_capacity)
        self._investment = InvestmentPolicy(
            regret_fraction=config.regret_fraction,
            require_affordable=config.require_affordable_build,
        )
        self._tenants = tenants
        self._outcomes: List[QueryOutcome] = []
        self._uncovered: List[Tuple[str, float]] = []
        # Batched-planning state: populated by prime_queries when the
        # configured planning mode is "batched"; None keeps every query on
        # the scalar path.
        self._batch: Optional[BatchScheduler] = None
        self._plan_tables: Optional[PlanTableCache] = None
        # Cached-column key set, memoized against the cache version so the
        # hot loop does not rescan the cache on every query, and that set
        # plus the columns other partitions advertise
        # (_available_column_keys).
        self._column_keys_memo: FrozenSet[str] = frozenset()
        self._column_keys_version: int = -1
        self._available_memo: FrozenSet[str] = frozenset()
        self._available_version: Tuple[int, int] = (-1, -1)
        self._pricing_states: Dict[str, _TablePricingState] = {}
        # What a partitioned cache adds (a plain one owns every key and
        # sees no remote entry, so these stay empty): each key's remote
        # surcharge, memoized against the cache and remote versions;
        # regret owed to other partitions' owners; and, for adaptive
        # placement only, each structure's placement bids.
        self._remote_access = RemoteAccessModel()
        self._surcharges: Dict[str, Optional[Surcharge]] = {}
        self._surcharges_version: Tuple[int, int] = (-1, -1)
        self._foreign_regret: Dict[str, Tuple[CacheStructure, float]] = {}
        self._record_bids = False
        self._placement_bids: Dict[str, float] = {}
        #: Chosen plans that used at least one remote structure, their
        #: remote structure accesses, and the bytes and dollars those
        #: shipped over the interconnect.
        self.remote_hits = 0
        self.remote_structure_accesses = 0
        self.remote_bytes = 0.0
        self.remote_dollars = 0.0
        # The investment rule's spot build costs (_spot_cost_estimator).
        self._spot_costs: Dict[str, float] = {}
        self._spot_costs_key: Optional[Tuple[FrozenSet[str], float]] = None
        # Market-shock state. Price shocks scale what the *provider* pays
        # (spot build spend and the investment rule's estimates); budget
        # squeezes scale every tenant's willingness-to-pay at offer time.
        # Users keep amortizing the price actually paid for a structure,
        # so both factors leave credit conservation bitwise-exact.
        self._price_factor: float = 1.0
        self._budget_factor: float = 1.0
        # Query-payment watermark of the last strict-maintenance
        # enforcement: income earned since is what may cover accrual.
        # The instant guard keeps enforcement idempotent when several
        # settlement events land on one instant (a periodic settlement
        # coinciding with the trailing one): re-enforcing with zero
        # elapsed income would shut down everything still accruing.
        self._strict_income_mark: float = 0.0
        self._strict_enforced_at: Optional[float] = None
        # Observability sink (duck-typed TraceRecorder). Always None unless
        # attach_trace() is called; the hot loop pays one attribute check.
        self._trace = None

    # -- accessors -----------------------------------------------------------------

    @property
    def config(self) -> EconomyConfig:
        """The engine configuration."""
        return self._config

    @property
    def cache(self) -> CacheManager:
        """The cache manager holding the built structures."""
        return self._cache

    @property
    def account(self) -> CloudAccount:
        """The cloud account (credit ``CR`` and ledger)."""
        return self._account

    @property
    def regret_tracker(self) -> RegretTracker:
        """The per-structure regret array."""
        return self._regret

    @property
    def tenants(self) -> Optional[TenantRegistry]:
        """The tenant registry, or ``None`` for the single-tenant engine."""
        return self._tenants

    @property
    def outcomes(self) -> Tuple[QueryOutcome, ...]:
        """Outcomes of every processed query, in processing order."""
        return tuple(self._outcomes)

    def outcomes_since(self, start: int) -> List[QueryOutcome]:
        """The outcomes from position ``start`` on, in processing order,
        copying only that tail."""
        return self._outcomes[start:]

    @property
    def execution_model(self) -> ExecutionCostModel:
        """The execution cost model used by the enumerator."""
        return self._structure_costs.execution_model

    @property
    def trace(self):
        """The attached trace recorder, or ``None`` (tracing disabled)."""
        return self._trace

    def attach_trace(self, recorder) -> None:
        """Attach a read-only trace recorder to the engine and its parts.

        The recorder (duck-typed :class:`repro.obs.trace.TraceRecorder`)
        observes values the run computes anyway — it must never perturb
        outcomes. Propagates to the cache manager and, when batched
        planning is active, the batch scheduler; ``prime_queries`` also
        forwards it to any scheduler created later.
        """
        self._trace = recorder
        self._cache.attach_trace(recorder)
        if self._batch is not None:
            self._batch.attach_trace(recorder)

    # -- main entry point --------------------------------------------------------------

    def prime_queries(self, queries: Iterable[Query],
                      settlement_period_s: Optional[float] = None,
                      grid_start_s: Optional[float] = None) -> None:
        """Announce upcoming arrivals to the batched planner.

        A no-op unless the engine is configured with
        ``planning="batched"``. Queries not primed (or primed queries
        arriving twice) simply take the scalar path, whose outcomes are
        identical by construction.

        Args:
            queries: the upcoming arrivals, in arrival order — any
                iterable; the scheduler pulls it one window at a time.
            settlement_period_s: the simulation's settlement period, used
                as the batching epoch grid.
            grid_start_s: where that grid starts (default: the first
                primed arrival).
        """
        if self._config.planning != PLANNING_BATCHED:
            return
        if self._plan_tables is None:
            self._plan_tables = PlanTableCache()
        if self._batch is None:
            self._batch = BatchScheduler(
                self._enumerator, self.execution_model,
                tables=self._plan_tables,
            )
            if self._trace is not None:
                self._batch.attach_trace(self._trace)
        self._batch.prime(queries, settlement_period_s, grid_start_s)

    def process_query(self, query: Query,
                      now: Optional[float] = None) -> QueryOutcome:
        """Run one query through the economy and return its outcome."""
        time_s = query.arrival_time if now is None else now
        self._uncovered = []

        evictions = tuple(self._cache.evict_failed_structures(time_s))
        eviction_losses = sum(
            record.unpaid_maintenance + record.unrecovered_build_cost
            for record in evictions
        )

        batch_view = (self._batch.view_for(query)
                      if self._batch is not None else None)
        if batch_view is not None:
            result, regrets = self._plan_batched(query, time_s, batch_view)
        else:
            result, regrets = self._plan_scalar(query, time_s)

        maintenance_recovered = self._settle_chosen_plan(query, result, time_s)
        self._distribute_regret(query, regrets)
        builds, build_spend = self._consider_investments(query, time_s)

        outcome = self._build_outcome(
            query, result, time_s, maintenance_recovered,
            builds, build_spend, evictions, eviction_losses,
        )
        self._outcomes.append(outcome)
        if self._trace is not None:
            self._trace.count("engine:queries")
            self._trace.count(f"engine:case_{result.case.name}")
            if outcome.served_in_cache:
                self._trace.count("engine:cache_hits")
            if builds:
                self._trace.count("engine:builds", len(builds))
        return outcome

    def process_workload(self, queries: Sequence[Query]) -> List[QueryOutcome]:
        """Process queries in order (convenience wrapper for tests/examples)."""
        return [self.process_query(query) for query in queries]

    # -- market shocks -----------------------------------------------------------------
    #
    # Shock semantics (the conservation-under-faults contract, see
    # docs/scenarios.md): invalidation moves no money, price shocks scale
    # only provider-side spending (spot build spend + investment
    # estimates + the maintenance *metric*), and budget squeezes scale
    # offers whose charges still mirror into tenant wallets — so credit
    # conservation stays bitwise-exact through arbitrary shock sequences.

    @property
    def budget_factor(self) -> float:
        """The currently active tenant budget-squeeze factor."""
        return self._budget_factor

    def apply_price_shock(self, factor: float) -> None:
        """Reprice provider build/maintenance by ``factor`` from now on.

        ``factor == 1.0`` ends a shock window. Structures built during the
        window are admitted at the spot (scaled) cost actually paid, so
        their amortization recovers the real spend after the shock lifts.
        """
        if factor <= 0:
            raise ConfigurationError(
                f"price shock factor must be positive, got {factor}"
            )
        self._price_factor = factor

    def apply_budget_squeeze(self, factor: float) -> None:
        """Scale every tenant's willingness-to-pay by ``factor`` from now on.

        ``factor == 1.0`` ends a squeeze window. The scaled budget caps
        the negotiated charge, which still mirrors into the issuing
        tenant's wallet, so provider and tenant books keep balancing.
        """
        if factor <= 0:
            raise ConfigurationError(
                f"budget squeeze factor must be positive, got {factor}"
            )
        self._budget_factor = factor

    def invalidate_structures(self, predicate: str,
                              now: float) -> Tuple[EvictionRecord, ...]:
        """Destroy cached structures whose key contains ``predicate``.

        An empty predicate destroys everything. Beyond evicting, the
        enumerator's generation is bumped (so batched plan tables
        rebuild) and the batched pricing memos are dropped — the next
        query re-prices against the post-fault cache on either planning
        path, and the economy must re-earn the lost structures through
        its normal investment rule.
        """
        matching = [entry.structure.key for entry in self._cache.entries
                    if predicate in entry.structure.key]
        records = tuple(
            self._cache.evict(key, now=now, reason="invalidated")
            for key in matching
        )
        self._enumerator.invalidate()
        self._pricing_states.clear()
        return records

    def enforce_maintenance(self, now: float) -> Tuple[EvictionRecord, ...]:
        """The strict-maintenance shutdown-priority policy.

        When :attr:`EconomyConfig.strict_maintenance` is set: compare the
        spot-priced maintenance accrued (unbilled) across the cache with
        the query-payment income earned since the previous enforcement,
        and shut down — evict — the lowest-benefit structures first until
        accrual no longer exceeds income. Benefit is what a structure has
        actually earned back (maintenance billed plus amortization
        recovered); ties break on the key for determinism.
        """
        if not self._config.strict_maintenance:
            return ()
        if (self._strict_enforced_at is not None
                and now <= self._strict_enforced_at):
            return ()
        self._strict_enforced_at = now
        income_total = self._account.category_total(
            CloudAccount.CATEGORY_QUERY_PAYMENT)
        income = income_total - self._strict_income_mark
        self._strict_income_mark = income_total
        accrued_by_key = self._cache.accrued_maintenance(now)
        accrued = sum(accrued_by_key.values()) * self._price_factor
        if accrued <= income:
            return ()
        ranked = sorted(
            self._cache.entries,
            key=lambda entry: (
                entry.maintenance_billed + entry.amortized_recovered,
                entry.structure.key,
            ),
        )
        records: List[EvictionRecord] = []
        for entry in ranked:
            if accrued <= income:
                break
            key = entry.structure.key
            accrued -= accrued_by_key.get(key, 0.0) * self._price_factor
            records.append(
                self._cache.evict(key, now=now, reason="maintenance_shutdown")
            )
        if records:
            self._pricing_states.clear()
        return tuple(records)

    # -- planning --------------------------------------------------------------------
    #
    # Both planning paths price the query's plans into (price, time,
    # existing) rows for _negotiate. The batched path replaces per-plan
    # pricing with array arithmetic over a per-template plan table, but
    # every float it produces is the output of the identical scalar
    # expression tree, so negotiation and settlement see bit-for-bit
    # identical inputs. What moves out of the hot loop is the
    # per-instance execution estimation (vectorized per epoch), the
    # per-plan re-pricing of shared structures, the re-summing of row
    # totals no built charge moved, and the materialisation of every row
    # but the chosen one.

    def _negotiate(self, query: Query, prices: List[float],
                   times: List[float], existing: Sequence[bool],
                   backend_row: Optional[int], selected: Sequence[int]
                   ) -> NegotiationResult:
        """Offer the query the skyline ``selected`` rows (plus the cheapest
        existing one) against the user's budget, and negotiate."""
        reference = budget_reference(prices, existing, backend_row)
        budget = self._offer(query, prices[reference], times[reference])
        candidates = [
            _RowCandidate(prices[row], times[row], existing[row], row)
            for row in offer_rows(selected, prices, existing)
        ]
        return negotiate(budget, candidates, self._config.plan_selection)

    def _plan_scalar(self, query: Query, now: float
                     ) -> Tuple[NegotiationResult, List[RegretPair]]:
        """Price every enumerated plan, then negotiate over their rows."""
        priced = self._price_plans(query, now)
        prices = [plan.price for plan in priced]
        times = [plan.response_time_s for plan in priced]
        existing = [plan.is_existing for plan in priced]
        backend_row = next((row for row, plan in enumerate(priced)
                            if plan.plan.kind is PlanKind.BACKEND), None)
        # The skyline of the row positions, read through the row lists.
        selected = skyline_filter(range(len(priced)),
                                  time_of=times.__getitem__,
                                  cost_of=prices.__getitem__)
        result = self._negotiate(query, prices, times, existing,
                                 backend_row, selected)
        built_keys = self._cache.built_keys
        regrets = [(priced[candidate.row].plan.new_structures(built_keys),
                    regret) for candidate, regret in result.regrets]
        return NegotiationResult(result.case, priced[result.chosen.row],
                                 result.charge, result.profit,
                                 result.regrets), regrets

    def _price_plans(self, query: Query, now: float) -> List[PricedPlan]:
        plans = self._enumerator.enumerate(query)
        if not plans:
            raise PlanningError(f"no plans enumerated for query {query.query_id}")
        priced = self._pricer.price_plans(plans, self._cache, now)
        if not self._cache.remote_version:
            return priced
        surcharge_of = self._remote_surcharge
        return [remote_priced(plan, surcharge_of) for plan in priced]

    def _offer(self, query: Query, price: float,
               response_time_s: float) -> BudgetFunction:
        """The issuing user's budget against the reference plan's price
        and time, scaled by the active budget-squeeze factor."""
        if self._tenants is not None:
            budget = self._tenants.budget_for(
                query, price, response_time_s,
                default_model=self._config.user_model,
            )
        else:
            budget = self._config.user_model.budget_for(query, price,
                                                        response_time_s)
        if self._budget_factor == 1.0:
            return budget
        return budget.scaled(self._budget_factor)

    def _plan_batched(self, query: Query, now: float, view: Tuple
                      ) -> Tuple[NegotiationResult, List[RegretPair]]:
        """Price one query's rows from its batch view, then negotiate.

        Only the chosen row becomes a PricedPlan. Each regret row leaves
        as its ``(missing structures, regret)`` pair from the pricing
        state.
        """
        table, estimates, column = view
        state = self._pricing_state_for(table)
        state.reprice_built(self._pricer.amortization, now)
        execution_dollars = estimates.execution_dollars_for(column)
        times = estimates.times_for(column)
        # Each surcharge is a constant of the state; the lists are fresh
        # per query, so adding in place is safe.
        for row_index, (dollars, seconds, _) in state.surcharges.items():
            execution_dollars[row_index] += dollars
            times[row_index] += seconds
        amortized = state.row_totals
        prices = [dollars + total
                  for dollars, total in zip(execution_dollars, amortized)]
        result = self._negotiate(query, prices, times, state.existing,
                                 table.backend_row,
                                 skyline_indices(times, prices))
        row_index = result.chosen.row
        chosen = self._materialize_row(
            query, state, estimates, column, row_index,
            execution_dollars[row_index], amortized[row_index])
        regrets = [(state.missing(candidate.row), regret)
                   for candidate, regret in result.regrets]
        return NegotiationResult(result.case, chosen, result.charge,
                                 result.profit, result.regrets), regrets

    def _pricing_state_for(self, table: PlanTable) -> _TablePricingState:
        """The pricing state of one plan table.

        Rebuilt whenever the cache contents change (tracked through
        :attr:`CacheManager.version`) or the template's plan table was
        regenerated, and re-advertised whenever the entries other
        partitions advertise change (``remote_version``); otherwise reused
        as-is across the queries in between. An adaptive handoff moves
        entries without a cache-version bump, so the state keeps its
        cached flags across the handoff barrier.
        """
        state = self._pricing_states.get(table.template_name)
        cache = self._cache
        if (state is None or state.table is not table
                or state.version != cache.version):
            cached_column_keys = self._cached_column_keys()
            build_cost = self._pricer.build_cost
            charge = self._pricer.amortization.charge
            state = _TablePricingState(
                table, cache.version, cache,
                lambda structure: charge(
                    build_cost(structure, cached_column_keys), 0))
            self._pricing_states[table.template_name] = state
        remote_version = cache.remote_version
        if state.remote_version != remote_version:
            state.advertise(remote_version, self._remote_surcharge)
        return state

    def _remote_surcharge(self, key: str) -> Optional[Surcharge]:
        """``(dollars, seconds, shipped_bytes)`` of one access to ``key``
        on another partition, or ``None`` when it is not remote here.

        Memoized until the cache's contents or the advertised entries
        change. A handoff moves entries without a cache-version bump, but
        its barrier installs a directory advertising the move.
        """
        cache = self._cache
        version = (cache.version, cache.remote_version)
        if self._surcharges_version != version:
            self._surcharges = {}
            self._surcharges_version = version
        surcharges = self._surcharges
        try:
            return surcharges[key]
        except KeyError:
            entry = cache.remote_entry(key)
            surcharge = (None if entry is None
                         else self._remote_access.surcharge(entry.size_bytes))
            surcharges[key] = surcharge
            return surcharge

    def _materialize_row(self, query: Query, state: _TablePricingState,
                         estimates, column: int, row_index: int,
                         execution_dollars: float, amortized: float
                         ) -> PricedPlan:
        """Instantiate the chosen row as the scalar pipeline's PricedPlan.

        The chosen row is existing: each slot is built or, on a
        partitioned cache, a remote access, so it has no new structures.
        A remote access has no amortisation entry: the row's summed
        surcharge folds into the execution estimate instead.
        """
        row = state.table.rows[row_index]
        charges = state.charges
        cached_flags = state.cached_flags
        maintenance = state.maintenance

        amortized_by_structure: Dict[str, float] = {}
        maintenance_total = 0.0
        for slot, structure in zip(row.structure_indices,
                                   row.plan.structures):
            if cached_flags[slot]:
                amortized_by_structure[structure.key] = charges[slot]
                maintenance_total += maintenance[slot]

        if row.constant:
            execution = row.plan.execution
        else:
            execution = estimates.estimate_for(row_index, column)
        surcharge = state.surcharges.get(row_index)
        if surcharge is not None:
            execution = with_surcharge(execution, surcharge)
        # Direct construction instead of dataclasses.replace(): this runs
        # for every query.
        proto = row.plan
        plan = QueryPlan(
            query=query, kind=proto.kind, execution=execution,
            structures=proto.structures, index=proto.index,
            node_count=proto.node_count,
        )

        return PricedPlan(
            plan=plan,
            execution_dollars=execution_dollars,
            amortized_dollars=amortized,
            maintenance_dollars=maintenance_total,
            new_structures=(),
            amortized_by_structure=amortized_by_structure,
        )

    def _settle_chosen_plan(self, query: Query, result: NegotiationResult,
                            now: float) -> float:
        """Move the money and update structure bookkeeping for the chosen plan."""
        chosen = result.chosen
        account = self._account
        note = f"query {query.query_id} ({chosen.label})"
        account.deposit(result.charge, now, CloudAccount.CATEGORY_QUERY_PAYMENT,
                        note=note)
        if self._tenants is not None:
            # Mirror transaction: the payment the provider just banked is
            # withdrawn from the issuing tenant's wallet (and only theirs),
            # so the registry's books balance against the provider's.
            self._tenants.charge(query.tenant_id, result.charge, now,
                                 note=note)
        execution_cost = chosen.execution_dollars
        self._safe_withdraw(execution_cost, now,
                            CloudAccount.CATEGORY_EXECUTION_COST,
                            note=f"query {query.query_id}")

        maintenance_recovered = 0.0
        used_keys = [structure.key for structure in chosen.plan.structures
                     if self._cache.contains(structure.key)]
        if used_keys:
            billed = self._cache.bill_maintenance(used_keys, now)
            maintenance_recovered = sum(billed.values())
            self._cache.record_usage(used_keys, now)
            for key in used_keys:
                recovered = chosen.amortized_by_structure.get(key, 0.0)
                if recovered:
                    self._cache.record_amortized_recovery(key, recovered)
        if self._record_bids or self._cache.remote_version:
            self._tally_remote_accesses(chosen.plan.structures)
        return maintenance_recovered

    def _tally_remote_accesses(self, structures: Sequence[CacheStructure]
                               ) -> None:
        """Count the chosen plan's remote accesses (their surcharge was
        paid with the execution cost) and, for adaptive placement, bid
        for each structure: a remote access at the surcharge it paid, a
        resident one at the surcharge this partition avoids."""
        cache = self._cache
        accesses = 0
        for structure in structures:
            key = structure.key
            surcharge = self._remote_surcharge(key)
            if surcharge is None:
                if self._record_bids and cache.contains(key):
                    size = cache.entry(key).size_bytes
                    self._record_placement_bid(
                        key, self._remote_access.surcharge(size)[0])
                continue
            accesses += 1
            dollars, _, shipped = surcharge
            self.remote_dollars += dollars
            self.remote_bytes += shipped
            if self._record_bids:
                self._record_placement_bid(key, dollars)
        if accesses:
            self.remote_hits += 1
            self.remote_structure_accesses += accesses

    def _record_placement_bid(self, key: str, dollars: float) -> None:
        """Tally one access's placement benefit (observation only)."""
        if dollars > 0:
            self._placement_bids[key] = (
                self._placement_bids.get(key, 0.0) + dollars)

    def _distribute_regret(self, query: Query,
                           regrets: Sequence[RegretPair]) -> None:
        """Book each regretted plan's ``(missing structures, regret)``
        pair as :func:`~repro.economy.decisions.attribute_regret` splits
        it; the tenant's own mirror records the full regret here."""
        divide = self._config.divide_regret
        cache = self._cache
        foreign_regret = self._foreign_regret
        for missing, regret in regrets:
            shares = attribute_regret(missing, regret, divide, cache.owns,
                                      cache.remote_entry)
            if shares is None:
                continue
            self._regret.distribute(shares.owned, shares.share, divide=False)
            if self._tenants is not None:
                self._tenants.record_regret(query.tenant_id, shares.missing,
                                            regret, divide=divide)
            for structure in shares.foreign:
                _, owed = foreign_regret.get(structure.key, (structure, 0.0))
                foreign_regret[structure.key] = (structure, owed + shares.share)

    def _consider_investments(self, query: Query,
                              now: float) -> Tuple[Tuple[StructureBuild, ...], float]:
        """Apply Eq. 3 and build the structures whose regret justifies it."""
        builds: List[StructureBuild] = []
        total_spend = 0.0
        limit = self._config.max_investments_per_query
        if limit == 0:
            return tuple(builds), total_spend

        decisions = self._investment.candidates(
            self._regret, self._account,
            build_cost_of=self._spot_cost_estimator(),
            built_keys=self._cache.built_keys,
        )
        for decision in decisions:
            if len(builds) >= limit:
                break
            structure = decision.structure
            if self._cache.contains(structure.key):
                continue
            built = self._build_structure(structure, query.query_id, now)
            if not built:
                continue
            builds.extend(built)
            total_spend += sum(record.build_cost for record in built)
        return tuple(builds), total_spend

    def _cached_column_keys(self) -> FrozenSet[str]:
        """Keys of the cached columns in the local cache (memoized).

        The memo is keyed on :attr:`CacheManager.version`, so it refreshes
        exactly when the set of built structures changes. Like the
        pricing state's cached flags, it is kept across an adaptive
        handoff, which moves entries without a version bump.
        """
        version = self._cache.version
        if self._column_keys_version != version:
            self._column_keys_memo = frozenset(
                key for key in self._cache.built_keys
                if key.startswith("column:")
            )
            self._column_keys_version = version
        return self._column_keys_memo

    def _available_column_keys(self) -> FrozenSet[str]:
        """Column keys a build may read instead of re-extracting: the
        cached ones plus those other partitions advertise, which a build
        can read over the network (memoized per cache and remote
        version)."""
        cache = self._cache
        version = (cache.version, cache.remote_version)
        if self._available_version != version:
            self._available_memo = (self._cached_column_keys()
                                    | cache.remote_column_keys)
            self._available_version = version
        return self._available_memo

    def _spot_cost_estimator(self) -> Callable[[CacheStructure], float]:
        """The investment rule's build-cost estimate for this query.

        The rule sees the *spot* (shock-scaled) price: a 3x provider
        shock must make marginal builds unattractive. The pricer's
        catalog cost stays unscaled — it is shared with the pricing of
        unbuilt plans, which always quotes users catalog prices. Spot
        costs are memoized across queries, keyed on what a cost depends
        on: the columns a build may read and the price factor. A column
        admit or eviction, a remote publication or a price shock changes
        the key and empties the memo.
        """
        available = self._available_column_keys()
        factor = self._price_factor
        memo_key = (available, factor)
        if self._spot_costs_key != memo_key:
            self._spot_costs = {}
            self._spot_costs_key = memo_key
        costs = self._spot_costs
        build_cost = self._pricer.build_cost

        def spot_cost(structure: CacheStructure) -> float:
            cost = costs.get(structure.key)
            if cost is None:
                cost = build_cost(structure, available) * factor
                costs[structure.key] = cost
            return cost
        return spot_cost

    def _build_structure(self, structure: CacheStructure, query_id: int,
                         now: float) -> List[StructureBuild]:
        """Build one structure (plus, for an index, its missing key columns).

        Returns an empty list if this cache may not build it (see
        :func:`~repro.economy.decisions.build_pieces`) or the account can
        no longer afford the build (credit may have dropped since the
        decision was evaluated).
        """
        available = self._available_column_keys()
        pieces = build_pieces(structure, available, self._cache.owns)
        # Builds are paid at spot: the active price-shock factor scales
        # every component of the build, and the admitted entry records the
        # cost actually paid so amortization recovers the real spend. Each
        # piece may read the columns built before it, so an index's sort
        # alone remains once its key columns are in.
        spot = self._price_factor
        build_cost = self._pricer.build_cost
        readable = set(available)
        plan: List[Tuple[CacheStructure, float]] = []
        for piece in pieces:
            plan.append((piece, build_cost(piece, readable) * spot))
            readable.add(piece.key)
        if not plan:
            return []

        total_cost = sum(cost for _, cost in plan)
        if self._config.require_affordable_build and not self._account.can_afford(total_cost):
            return []

        builds: List[StructureBuild] = []
        schema = self._structure_costs.schema
        for piece, cost in plan:
            if self._cache.contains(piece.key):
                continue
            self._safe_withdraw(cost, now, CloudAccount.CATEGORY_BUILD,
                                note=piece.key)
            self._cache.admit(
                piece,
                size_bytes=piece.size_bytes(schema),
                build_cost=cost,
                maintenance_rate=self._structure_costs.maintenance_rate(piece),
                now=now,
            )
            self._regret.reset(piece.key)
            if self._tenants is not None:
                self._tenants.reset_regret(piece.key)
            builds.append(StructureBuild(
                key=piece.key,
                kind=piece.kind,
                build_cost=cost,
                built_at=now,
                triggered_by_query=query_id,
            ))
        return builds

    def _safe_withdraw(self, amount: float, now: float, category: str,
                       note: str = "") -> float:
        """Withdraw, capping at the available credit.

        Any shortfall — the part of ``amount`` the credit could not cover —
        used to be dropped silently; it is now recorded per category and
        surfaced on the query's :class:`QueryOutcome` as ``uncovered_costs``,
        so reports can see exactly which payments were capped.

        Args:
            amount: the payment due.
            now: simulated instant of the withdrawal.
            category: ledger category of the payment.
            note: free-form ledger note.

        Returns:
            The shortfall (0.0 when the payment was covered in full).
        """
        if amount <= 0:
            return 0.0
        affordable = min(amount, max(0.0, self._account.credit))
        if affordable > 0:
            self._account.withdraw(affordable, now, category, note=note)
        shortfall = amount - affordable
        if shortfall > 1e-12:
            self._uncovered.append((category, shortfall))
            return shortfall
        return 0.0

    def _build_outcome(self, query: Query, result: NegotiationResult, now: float,
                       maintenance_recovered: float,
                       builds: Tuple[StructureBuild, ...], build_spend: float,
                       evictions: Tuple[EvictionRecord, ...],
                       eviction_losses: float) -> QueryOutcome:
        chosen = result.chosen
        execution = chosen.plan.execution
        return QueryOutcome(
            query=query,
            case=result.case,
            plan_kind=chosen.plan.kind,
            plan_label=chosen.label,
            served_in_cache=chosen.plan.runs_in_cache,
            response_time_s=chosen.response_time_s,
            charge=result.charge,
            profit=result.profit,
            execution_cost=chosen.execution_dollars,
            execution_cpu_dollars=execution.cpu_dollars,
            execution_io_dollars=execution.io_dollars,
            execution_network_dollars=execution.network_dollars,
            network_bytes=execution.network_bytes,
            maintenance_recovered=maintenance_recovered,
            builds=builds,
            build_spend=build_spend,
            evictions=evictions,
            eviction_losses=eviction_losses,
            credit_after=self._account.credit,
            tenant_id=query.tenant_id,
            uncovered_costs=tuple(self._uncovered),
        )
