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

The engine is scheme-agnostic: the four caching schemes of Section VII are
thin configurations of this engine (or, for the bypass-yield baseline, a
different decision procedure entirely — see :mod:`repro.policies`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Tuple)

from repro import constants
from repro.cache.manager import CacheConfig, CacheManager
from repro.cache.storage import EvictionRecord
from repro.costmodel.amortization import AmortizationPolicy, UniformAmortization
from repro.costmodel.build import StructureCostModel
from repro.costmodel.execution import ExecutionCostModel
from repro.economy.account import CloudAccount
from repro.economy.batch import BatchPricingContext, BatchScheduler
from repro.economy.budget import BudgetFunction
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
from repro.structures.cached_index import CachedIndex
from repro.workload.query import Query

#: Planning-mode names accepted by :attr:`EconomyConfig.planning` (and the
#: CLI's ``--planning`` flag).
PLANNING_SCALAR = "scalar"
PLANNING_BATCHED = "batched"
PLANNING_MODES = (PLANNING_SCALAR, PLANNING_BATCHED)


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
        planning: ``"scalar"`` (the default) prices every query through the
            per-plan pipeline; ``"batched"`` lets a primed engine score
            whole arrival batches through the vectorized plan-table path
            (:mod:`repro.economy.batch`), with outcomes bit-for-bit
            identical to scalar processing.
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
    planning: str = PLANNING_SCALAR
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
    """

    __slots__ = ("table", "version", "charges", "cached_flags", "maintenance",
                 "cached_slots", "cached_entries", "existing", "row_totals",
                 "stale")

    def __init__(self, table, version, charges, cached_flags, maintenance,
                 cached_slots, cached_entries, existing):
        self.table = table
        self.version = version
        self.charges = charges
        self.cached_flags = cached_flags
        self.maintenance = maintenance
        self.cached_slots = cached_slots
        self.cached_entries = cached_entries
        self.existing = existing
        self.row_totals = [0.0] * table.row_count
        self.stale = True

    def reprice_built(self, amortization: AmortizationPolicy,
                      now: float) -> None:
        """Re-price the built slots at ``now`` and refresh stale row totals.

        Charges are never negative or NaN, so ``!=`` detects every move.
        """
        charges = self.charges
        maintenance = self.maintenance
        stale = self.stale
        for slot, entry in zip(self.cached_slots, self.cached_entries):
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
    """One skyline row as negotiation reads it (a ``NegotiablePlan``)."""

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
        # hot loop does not rescan the cache on every query.
        self._column_keys_memo: FrozenSet[str] = frozenset()
        self._column_keys_version: int = -1
        self._pricing_states: Dict[str, _TablePricingState] = {}
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
        self._shock_counts: Dict[str, int] = {}
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

    @property
    def execution_model(self) -> ExecutionCostModel:
        """The execution cost model used by the enumerator."""
        return self._structure_costs.execution_model

    @property
    def plan_tables(self) -> Optional[PlanTableCache]:
        """The per-template plan-table cache (batched planning only)."""
        return self._plan_tables

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
                      settlement_period_s: Optional[float] = None) -> None:
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
        self._batch.prime(queries, settlement_period_s)

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
            result = self._plan_batched(query, time_s, batch_view)
        else:
            priced = self._price_plans(query, time_s)
            skyline = skyline_filter(
                priced,
                time_of=lambda plan: plan.response_time_s,
                cost_of=lambda plan: plan.price,
            )
            skyline = self._ensure_existing_plan(priced, skyline)
            budget = self._budget_for(query, priced)
            result = negotiate(budget, skyline, self._config.plan_selection)

        maintenance_recovered = self._settle_chosen_plan(query, result, time_s)
        self._distribute_regret(query, result)
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
    def price_factor(self) -> float:
        """The currently active provider price-shock factor."""
        return self._price_factor

    @property
    def budget_factor(self) -> float:
        """The currently active tenant budget-squeeze factor."""
        return self._budget_factor

    @property
    def shock_counts(self) -> Dict[str, int]:
        """Count of shock applications by kind (reporting/diagnostics)."""
        return dict(self._shock_counts)

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
        self._shock_counts["price_shock"] = (
            self._shock_counts.get("price_shock", 0) + 1
        )

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
        self._shock_counts["budget_squeeze"] = (
            self._shock_counts.get("budget_squeeze", 0) + 1
        )

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
        self._shock_counts["invalidation"] = (
            self._shock_counts.get("invalidation", 0) + 1
        )
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

    # -- steps -----------------------------------------------------------------------

    def _price_plans(self, query: Query, now: float) -> List[PricedPlan]:
        plans = self._enumerator.enumerate(query)
        if not plans:
            raise PlanningError(f"no plans enumerated for query {query.query_id}")
        return self._pricer.price_plans(plans, self._cache, now)

    def _ensure_existing_plan(self, priced: List[PricedPlan],
                              skyline: List[PricedPlan]) -> List[PricedPlan]:
        """Guarantee the skyline still offers at least one existing plan.

        The skyline is computed over price and time only; if every existing
        plan got dominated by not-yet-built plans, negotiation would have
        nothing executable, so the cheapest existing plan is re-added.
        """
        if any(plan.is_existing for plan in skyline):
            return skyline
        existing = [plan for plan in priced if plan.is_existing]
        if not existing:
            return skyline
        cheapest = min(existing, key=lambda plan: plan.price)
        return skyline + [cheapest]

    def _budget_for(self, query: Query,
                    priced: List[PricedPlan]) -> BudgetFunction:
        backend = [plan for plan in priced
                   if plan.plan.kind is PlanKind.BACKEND]
        if backend:
            reference = backend[0]
        else:
            reference = min(
                (plan for plan in priced if plan.is_existing),
                key=lambda plan: plan.price,
                default=priced[0],
            )
        if self._tenants is not None:
            budget = self._tenants.budget_for(
                query, reference.price, reference.response_time_s,
                default_model=self._config.user_model,
            )
        else:
            budget = self._config.user_model.budget_for(
                query, reference.price, reference.response_time_s
            )
        return self._squeeze(budget)

    def _squeeze(self, budget: BudgetFunction) -> BudgetFunction:
        """Apply the active budget-squeeze factor to an offered budget."""
        if self._budget_factor == 1.0:
            return budget
        return budget.scaled(self._budget_factor)

    # -- batched planning --------------------------------------------------------------
    #
    # The batched path replaces _price_plans + skyline_filter +
    # _ensure_existing_plan + _budget_for with array arithmetic over a
    # per-template plan table, but every float it produces is the output of
    # the identical scalar expression tree, so negotiation and settlement
    # downstream see bit-for-bit identical inputs. Pricing against the
    # mutable cache stays per-query; what moves out of the hot loop is the
    # per-instance execution estimation (vectorized per epoch), the
    # per-plan re-pricing of shared structures (each distinct structure is
    # priced once per query instead of once per plan), the re-summing of
    # row totals no built charge moved, and the materialisation of skyline
    # rows negotiation does not keep.

    def _plan_batched(self, query: Query, now: float,
                      view: Tuple) -> NegotiationResult[PricedPlan]:
        """Price, skyline-filter, budget and negotiate one query from its
        batch view.

        Negotiation runs over one :class:`_RowCandidate` per skyline row;
        only the chosen row and the regret rows become PricedPlans.
        """
        table, estimates, column = view
        state = self._pricing_state_for(table)
        state.reprice_built(self._pricer.amortization, now)
        execution_dollars = estimates.execution_dollars_for(column)
        # A copy: the partitioned engine's hook rewrites the context lists.
        amortized = list(state.row_totals)
        prices = [dollars + total
                  for dollars, total in zip(execution_dollars, amortized)]

        context = BatchPricingContext(
            table=table, estimates=estimates, column=column,
            times=estimates.times_for(column),
            execution_dollars=execution_dollars, charges=state.charges,
            cached_flags=state.cached_flags, maintenance=state.maintenance,
            amortized=amortized, prices=prices, existing=list(state.existing),
            remote_surcharges=None,
        )
        self._adjust_batched_pricing(context, now)
        times, prices, existing = context.times, context.prices, context.existing

        selected = skyline_indices(times, prices)
        if not any(existing[row_index] for row_index in selected):
            # _ensure_existing_plan: re-add the cheapest existing plan
            # (first strict minimum, matching min()'s tie-breaking).
            cheapest: Optional[int] = None
            cheapest_price = float("inf")
            for row_index in range(table.row_count):
                if existing[row_index] and prices[row_index] < cheapest_price:
                    cheapest = row_index
                    cheapest_price = prices[row_index]
            if cheapest is not None:
                selected = selected + [cheapest]

        candidates = [
            _RowCandidate(prices[row_index], times[row_index],
                          existing[row_index], row_index)
            for row_index in selected
        ]
        budget = self._batched_budget(query, context)
        result = negotiate(budget, candidates, self._config.plan_selection)
        return NegotiationResult(
            case=result.case,
            chosen=self._materialize_row(query, context, result.chosen.row),
            charge=result.charge,
            profit=result.profit,
            regrets=tuple(
                (self._materialize_row(query, context, candidate.row), regret)
                for candidate, regret in result.regrets
            ),
        )

    def _pricing_state_for(self, table: PlanTable) -> _TablePricingState:
        """The cache-version-invariant pricing state of one plan table.

        Rebuilt whenever the cache contents change (tracked through
        :attr:`CacheManager.version`) or the template's plan table was
        regenerated; otherwise reused as-is across the queries in between.
        """
        state = self._pricing_states.get(table.template_name)
        version = self._cache.version
        if (state is not None and state.table is table
                and state.version == version):
            return state

        cache = self._cache
        amortization = self._pricer.amortization
        cached_column_keys = self._cached_column_keys()
        charges: List[float] = []
        cached_flags: List[bool] = []
        maintenance: List[float] = []
        cached_slots: List[int] = []
        cached_entries: List[object] = []
        for slot, structure in enumerate(table.unique_structures):
            if cache.contains(structure.key):
                cached_flags.append(True)
                cached_slots.append(slot)
                cached_entries.append(cache.entry(structure.key))
                charges.append(0.0)      # overwritten on every query
                maintenance.append(0.0)  # overwritten on every query
            else:
                build_cost = self._pricer.build_cost(
                    structure, cached_column_keys
                )
                charges.append(amortization.charge(build_cost, 0))
                cached_flags.append(False)
                maintenance.append(0.0)

        existing = [all(cached_flags[slot] for slot in row.structure_indices)
                    for row in table.rows]
        state = _TablePricingState(
            table=table, version=version, charges=charges,
            cached_flags=cached_flags, maintenance=maintenance,
            cached_slots=cached_slots, cached_entries=cached_entries,
            existing=existing,
        )
        self._pricing_states[table.template_name] = state
        return state

    def _adjust_batched_pricing(self, context: BatchPricingContext,
                                now: float) -> None:
        """Hook: rewrite the batch pricing context before skyline selection.

        The base engine prices purely against its own cache and adjusts
        nothing; the partitioned engine (:mod:`repro.distcache`) overrides
        this to fold remote-access surcharges into rows whose missing
        structures are advertised by the directory, mirroring its scalar
        ``_apply_remote`` re-pricing.
        """

    def _batched_budget(self, query: Query,
                        context: BatchPricingContext) -> BudgetFunction:
        """Mirror of :meth:`_budget_for` over the batch pricing context."""
        table = context.table
        if table.backend_row is not None:
            reference = table.backend_row
        else:
            reference = 0
            best_price = float("inf")
            for row_index in range(table.row_count):
                if (context.existing[row_index]
                        and context.prices[row_index] < best_price):
                    reference = row_index
                    best_price = context.prices[row_index]
        price = context.prices[reference]
        response_time = context.times[reference]
        if self._tenants is not None:
            budget = self._tenants.budget_for(
                query, price, response_time,
                default_model=self._config.user_model,
            )
        else:
            budget = self._config.user_model.budget_for(query, price,
                                                        response_time)
        return self._squeeze(budget)

    def _materialize_row(self, query: Query, context: BatchPricingContext,
                         row_index: int) -> PricedPlan:
        """Instantiate one plan-table row as the scalar pipeline's PricedPlan."""
        row = context.table.rows[row_index]
        charges = context.charges
        cached_flags = context.cached_flags
        maintenance = context.maintenance
        surcharges = context.remote_surcharges

        amortized_by_structure: Dict[str, float] = {}
        new_structures: List[CacheStructure] = []
        maintenance_total = 0.0
        remote_dollars = 0.0
        remote_seconds = 0.0
        remote_shipped = 0.0
        has_remote = False
        for slot, structure in zip(row.structure_indices,
                                   row.plan.structures):
            if cached_flags[slot]:
                amortized_by_structure[structure.key] = charges[slot]
                maintenance_total += maintenance[slot]
                continue
            surcharge = surcharges[slot] if surcharges is not None else None
            if surcharge is not None:
                # Remote access: no build, no amortisation entry — the
                # surcharge folds into the execution estimate below.
                dollars, seconds, shipped = surcharge
                remote_dollars += dollars
                remote_seconds += seconds
                remote_shipped += shipped
                has_remote = True
                continue
            new_structures.append(structure)
            amortized_by_structure[structure.key] = charges[slot]

        if row.constant:
            execution = row.plan.execution
        else:
            execution = context.estimates.estimate_for(row_index,
                                                       context.column)
        if has_remote:
            execution = replace(
                execution,
                network_bytes=execution.network_bytes + remote_shipped,
                network_dollars=execution.network_dollars + remote_dollars,
                response_time_s=execution.response_time_s + remote_seconds,
            )
        # Direct construction instead of dataclasses.replace(): this runs
        # for the chosen and the regret rows of every query.
        proto = row.plan
        plan = QueryPlan(
            query=query, kind=proto.kind, execution=execution,
            structures=proto.structures, index=proto.index,
            node_count=proto.node_count,
        )

        return PricedPlan(
            plan=plan,
            execution_dollars=context.execution_dollars[row_index],
            amortized_dollars=context.amortized[row_index],
            maintenance_dollars=maintenance_total,
            new_structures=tuple(new_structures),
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
        return maintenance_recovered

    def _distribute_regret(self, query: Query,
                           result: NegotiationResult) -> None:
        """Spread each non-chosen plan's regret over its missing structures."""
        built_keys = self._cache.built_keys
        for plan, regret in result.regrets:
            missing = plan.plan.new_structures(built_keys)
            if not missing:
                continue
            self._regret.distribute(missing, regret,
                                    divide=self._config.divide_regret)
            if self._tenants is not None:
                self._tenants.record_regret(query.tenant_id, missing, regret,
                                            divide=self._config.divide_regret)

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
        exactly when the set of built structures changes.
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
        """Column keys a build may read instead of re-extracting.

        The base engine only has its own cache; partitioned engines
        (:mod:`repro.distcache`) override this to add columns that exist
        on a remote partition, which a build can read over the network.
        """
        return self._cached_column_keys()

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

        Returns an empty list if the account can no longer afford the build
        (credit may have dropped since the decision was evaluated).
        """
        plan: List[Tuple[CacheStructure, float]] = []
        cached_columns = set(self._available_column_keys())
        # Builds are paid at spot: the active price-shock factor scales
        # every component of the build, and the admitted entry records the
        # cost actually paid so amortization recovers the real spend.
        spot = self._price_factor
        build_cost = self._pricer.build_cost
        if isinstance(structure, CachedIndex):
            for column in structure.required_columns():
                if column.key not in cached_columns:
                    plan.append((column, build_cost(column, cached_columns) * spot))
                    cached_columns.add(column.key)
            # Every key column is available now: the sort alone remains.
            plan.append((structure, build_cost(structure, cached_columns) * spot))
        else:
            plan.append((structure, build_cost(structure, cached_columns) * spot))

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
