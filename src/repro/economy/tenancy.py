"""Multi-tenant state: per-user accounts, budget policies, regret trackers.

The paper prices cache structures against the budgets of the *users* issuing
queries; this module gives each of those users (tenants) first-class state.
A :class:`TenantRegistry` maps a tenant id to a :class:`TenantState`: the
tenant's wallet (a :class:`~repro.economy.account.CloudAccount`), the budget
policy their queries negotiate with, and a per-tenant
:class:`~repro.economy.regret.RegretTracker` recording the regret the cloud
accumulated specifically on that tenant's queries.

The registry is deliberately *incremental*: every query updates only the
state of the tenant that issued it, so a population of thousands of tenants
costs no more per query than the single-tenant path. The single-tenant path
itself is untouched — an engine constructed without a registry behaves
byte-for-byte as before, and queries default to :data:`DEFAULT_TENANT_ID`.

Money is conserved by construction: a tenant wallet only changes through its
seed deposit and through :meth:`TenantRegistry.charge`, which moves exactly
the amount the provider deposits on the other side of the transaction.

Example::

    >>> registry = TenantRegistry()
    >>> state = registry.register(TenantProfile("alice", initial_credit=10.0))
    >>> registry.charge("alice", 4.0, now=1.0, note="query 7")
    >>> round(state.account.credit, 6)
    6.0
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from repro.economy.account import CloudAccount, ledger_fold
from repro.economy.budget import BudgetFunction
from repro.economy.regret import RegretTracker
from repro.economy.user_model import UserModel
from repro.errors import EconomyError
from repro.workload.population import tenant_id_for
from repro.workload.query import Query

if TYPE_CHECKING:
    from repro.workload.population import GenerativeProfileSource

#: Tenant id carried by queries that predate (or ignore) multi-tenancy.
DEFAULT_TENANT_ID = "default"

#: Ledger category for a tenant's query payments (mirror of the provider's
#: ``CATEGORY_QUERY_PAYMENT`` deposit).
CATEGORY_TENANT_CHARGE = "tenant_charge"


@dataclass(frozen=True)
class TenantProfile:
    """The static description of one tenant.

    Attributes:
        tenant_id: unique identifier (e.g. ``"t0042"``).
        initial_credit: seed credit of the tenant's wallet.
        budget_multiplier: scales every budget function the tenant submits
            (>1 models a tenant willing to outbid the baseline user model).
        user_model: optional per-tenant budget policy; when ``None`` the
            engine's configured :class:`~repro.economy.user_model.UserModel`
            is used.
        joined_at_s: simulated instant the tenant joined the population.

    Example:
        >>> profile = TenantProfile("t0001", initial_credit=25.0)
        >>> profile.budget_multiplier
        1.0
        >>> TenantProfile("", initial_credit=1.0)
        Traceback (most recent call last):
            ...
        repro.errors.EconomyError: tenant_id must not be empty
    """

    tenant_id: str
    initial_credit: float = 0.0
    budget_multiplier: float = 1.0
    user_model: Optional[UserModel] = None
    joined_at_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise EconomyError("tenant_id must not be empty")
        if self.initial_credit < 0:
            raise EconomyError(
                f"initial_credit must be non-negative, got {self.initial_credit}"
            )
        if self.budget_multiplier <= 0:
            raise EconomyError(
                f"budget_multiplier must be positive, got {self.budget_multiplier}"
            )
        if self.joined_at_s < 0:
            raise EconomyError(
                f"joined_at_s must be non-negative, got {self.joined_at_s}"
            )


class TenantState:
    """The mutable per-tenant state the registry maintains.

    Attributes:
        profile: the tenant's static profile.
        account: the tenant's wallet. Created with ``allow_negative=True``:
            a tenant that keeps querying past their balance goes into debt
            rather than silently dropping charges, so the registry's books
            always balance against the provider's.
        regret: regret the cloud accumulated on this tenant's queries only.

    Example:
        >>> state = TenantState(TenantProfile("bob", initial_credit=5.0))
        >>> state.active, round(state.account.credit, 6), state.queries_processed
        (True, 5.0, 0)
    """

    def __init__(self, profile: TenantProfile) -> None:
        self.profile = profile
        self.account = CloudAccount(
            initial_credit=profile.initial_credit, allow_negative=True
        )
        self.regret = RegretTracker(pool_capacity=64)
        self.active = True
        self.activated_at_s = profile.joined_at_s
        self.churned_at_s: Optional[float] = None
        self.queries_processed = 0

    @property
    def tenant_id(self) -> str:
        """The tenant's identifier (shorthand for ``profile.tenant_id``)."""
        return self.profile.tenant_id


class TenantRegistry:
    """Holds every tenant's wallet, budget policy, and regret tracker.

    The registry is the engine's window into the population: budgets are
    built per tenant (:meth:`budget_for`), query charges are settled against
    the issuing tenant's wallet (:meth:`charge`), and regret is recorded
    both globally (by the engine) and per tenant (:meth:`record_regret`).

    Example:
        >>> registry = TenantRegistry()
        >>> _ = registry.register(TenantProfile("alice", initial_credit=8.0))
        >>> _ = registry.register(TenantProfile("bob", initial_credit=2.0))
        >>> registry.charge("alice", 3.0, now=0.0)
        >>> round(registry.total_credit(), 6)       # 8 + 2 - 3
        7.0
        >>> sorted(registry.active_ids())
        ['alice', 'bob']
        >>> _ = registry.deactivate("bob", now=5.0)
        >>> registry.active_ids()
        ['alice']
    """

    #: Wallet ledgers folded when churn dropped their wallet, and how many
    #: of those did not fold to the wallet's balance. Registries that keep
    #: every wallet (this one) never drop a ledger.
    churned_ledgers_folded = 0
    churned_ledger_mismatches = 0

    def __init__(self) -> None:
        self._states: Dict[str, TenantState] = {}

    # -- registration ----------------------------------------------------------

    def register(self, profile: TenantProfile) -> TenantState:
        """Add one tenant; re-registering an id is an error.

        Args:
            profile: the tenant's static description.

        Returns:
            The freshly created :class:`TenantState`.
        """
        if profile.tenant_id in self._states:
            raise EconomyError(f"tenant {profile.tenant_id!r} already registered")
        state = TenantState(profile)
        self._states[profile.tenant_id] = state
        return state

    def register_all(self, profiles: Iterable[TenantProfile]) -> None:
        """Register many tenants (convenience wrapper)."""
        for profile in profiles:
            self.register(profile)

    def ensure(self, tenant_id: str) -> TenantState:
        """The tenant's state, auto-registering a neutral profile if needed.

        Auto-registration keeps the default tenant (and ad-hoc ids in tests)
        working without an explicit population set-up; the neutral profile
        has an empty wallet and the engine's baseline budget policy.

        Args:
            tenant_id: the tenant to look up.

        Returns:
            The (possibly new) :class:`TenantState`.
        """
        state = self._states.get(tenant_id)
        if state is None:
            state = self.register(TenantProfile(tenant_id))
        return state

    # -- lookups ---------------------------------------------------------------

    def state(self, tenant_id: str) -> TenantState:
        """The tenant's state; raises if the tenant was never registered."""
        try:
            return self._states[tenant_id]
        except KeyError:
            raise EconomyError(f"unknown tenant {tenant_id!r}") from None

    def __contains__(self, tenant_id: str) -> bool:
        return tenant_id in self._states

    def __len__(self) -> int:
        return len(self._states)

    def tenant_ids(self) -> List[str]:
        """All registered tenant ids, in registration order."""
        return list(self._states)

    def active_ids(self) -> List[str]:
        """Ids of tenants currently active, in registration order."""
        return [tid for tid, state in self._states.items() if state.active]

    def states(self) -> Tuple[TenantState, ...]:
        """Every tenant state, in registration order."""
        return tuple(self._states.values())

    # -- lifecycle -------------------------------------------------------------

    def activate(self, tenant_id: str, now: float = 0.0) -> TenantState:
        """Mark a tenant active (arrival); auto-registers unknown ids.

        Args:
            tenant_id: the arriving tenant.
            now: simulated arrival instant.

        Returns:
            The tenant's state.
        """
        state = self.ensure(tenant_id)
        state.active = True
        state.activated_at_s = now
        state.churned_at_s = None
        return state

    def deactivate(self, tenant_id: str, now: float = 0.0) -> TenantState:
        """Mark a tenant churned; their wallet and history are retained.

        Args:
            tenant_id: the churning tenant.
            now: simulated churn instant.

        Returns:
            The tenant's state.
        """
        state = self.state(tenant_id)
        state.active = False
        state.churned_at_s = now
        return state

    # -- economy hooks ---------------------------------------------------------

    @staticmethod
    def derive_budget(profile: Optional[TenantProfile], query: Query,
                      backend_price: float, backend_response_time_s: float,
                      default_model: UserModel) -> BudgetFunction:
        """The budget a (possibly unknown) profile yields for ``query``.

        Pure: no registry state is read or written, so any replica holding
        the same static profile derives the same curve — the property the
        sharded execution layer's foreign-tenant path depends on. ``None``
        behaves like a freshly auto-registered neutral profile.

        Args:
            profile: the issuing tenant's static profile, or ``None``.
            query: the query being negotiated.
            backend_price: reference price of back-end execution.
            backend_response_time_s: reference back-end response time.
            default_model: the engine's baseline user model.

        Returns:
            The tenant-adjusted :class:`~repro.economy.budget.BudgetFunction`.
        """
        model = default_model
        if profile is not None and profile.user_model is not None:
            model = profile.user_model
        budget = model.budget_for(query, backend_price,
                                  backend_response_time_s)
        multiplier = 1.0 if profile is None else profile.budget_multiplier
        if multiplier != 1.0:
            budget = budget.scaled(multiplier)
        return budget

    def budget_for(self, query: Query, backend_price: float,
                   backend_response_time_s: float,
                   default_model: UserModel) -> BudgetFunction:
        """The budget function the issuing tenant submits with ``query``.

        The tenant's own :class:`~repro.economy.user_model.UserModel` (if
        any) replaces ``default_model``; the tenant's ``budget_multiplier``
        then scales the resulting curve, making negotiation tenant-aware
        without touching the negotiation algorithm itself.

        Args:
            query: the query being negotiated (carries ``tenant_id``).
            backend_price: reference price of back-end execution.
            backend_response_time_s: reference back-end response time.
            default_model: the engine's baseline user model.

        Returns:
            The tenant-adjusted :class:`~repro.economy.budget.BudgetFunction`.
        """
        state = self.ensure(query.tenant_id)
        state.queries_processed += 1
        return self.derive_budget(state.profile, query, backend_price,
                                  backend_response_time_s, default_model)

    def charge(self, tenant_id: str, amount: float, now: float = 0.0,
               note: str = "") -> None:
        """Withdraw a query payment from the issuing tenant's wallet.

        The wallet allows a negative balance, so the charge is never
        silently dropped or shifted to another tenant — isolation and
        conservation both hold by construction.

        Args:
            tenant_id: the tenant who pays.
            amount: the (non-negative) charge.
            now: simulated instant of the payment.
            note: free-form ledger note.
        """
        if amount < 0:
            raise EconomyError(f"charge must be non-negative, got {amount}")
        if amount == 0:
            return
        state = self.ensure(tenant_id)
        state.account.withdraw(amount, now, CATEGORY_TENANT_CHARGE, note=note)

    def record_regret(self, tenant_id: str, structures, amount: float,
                      divide: bool = False) -> None:
        """Accumulate a plan's regret on the issuing tenant's own tracker.

        Mirrors the engine's global distribution so reports can show *whose*
        queries the cloud most regrets not serving better.

        Args:
            tenant_id: the tenant whose query produced the regret.
            structures: the non-chosen plan's missing structures.
            amount: the plan's regret.
            divide: split equally over the structures (matches the engine's
                ``divide_regret`` setting).
        """
        state = self.ensure(tenant_id)
        state.regret.distribute(structures, amount, divide=divide)

    def reset_regret(self, key: str) -> None:
        """Zero a structure's regret on every tenant tracker (it got built)."""
        for state in self._states.values():
            state.regret.reset(key)

    # -- aggregates ------------------------------------------------------------

    def total_credit(self) -> float:
        """Sum of all tenant wallet balances (the conserved quantity)."""
        return sum(state.account.credit for state in self._states.values())

    def total_charged(self) -> float:
        """Sum of every query payment ever charged across the registry."""
        return sum(state.account.total_withdrawn()
                   for state in self._states.values())

    def credit_by_tenant(self) -> Dict[str, float]:
        """Wallet balance per tenant id, in registration order."""
        return {tid: state.account.credit for tid, state in self._states.items()}

    def live_tenant_count(self) -> int:
        """Number of tenants the registry currently considers active.

        With eager registration every profile starts active at
        construction, so the gauge counts "registered minus churned"; the
        generative subclass refines it to "arrived minus churned".
        """
        return sum(1 for state in self._states.values() if state.active)


class GenerativeTenantRegistry(TenantRegistry):
    """A registry whose tenants exist only while the simulation needs them.

    The eager :class:`TenantRegistry` holds one :class:`TenantState` per
    population member for the whole run — fine at 10^3 tenants, fatal at
    10^6. This subclass instead derives profiles on demand from a
    :class:`~repro.workload.population.GenerativeProfileSource` (a pure
    function of ``(population seed, tenant index)``):

    * **arrival** (:meth:`activate`) only advances the mint high-water
      mark and the seed-credit aggregate — O(1) amortised, no state
      object;
    * the full :class:`TenantState` materialises lazily at the tenant's
      first query (:meth:`ensure`, reached via ``budget_for``/``charge``);
    * **churn** (:meth:`deactivate`) *drops* the state again, compressing
      a charged wallet to two floats in an archive (a tenant that never
      paid anything needs no archive at all — rematerialisation rebuilds
      it exactly). A returning tenant resumes with its archived balance,
      honouring the base class's retention contract.

    Resident full states are therefore bounded by the tenants that are
    both *live and charged* plus the churned-but-charged archive (two
    floats each) — never by the total population. Aggregates
    (:meth:`total_credit`, :meth:`total_charged`) are maintained as O(1)
    running sums; per-tenant wallet values are bitwise identical to the
    eager registry's, because each materialised wallet replays exactly
    the charges the eager wallet received. A wallet's ledger is folded
    when churn drops it (:attr:`churned_ledgers_folded`,
    :attr:`churned_ledger_mismatches`), so a conservation audit still
    covers the wallets no longer held.

    The registry accounts for every tenant; a subclass may narrow that
    through the :meth:`_owned_index` hook (the sharded execution layer
    scopes it to one shard). Tenants it does not own are tracked only
    through the mint high-water mark, so their profiles stay derivable.

    Args:
        source: the pure profile derivation.

    Example:
        >>> from repro.workload.population import (GenerativeProfileSource,
        ...                                        PopulationSpec)
        >>> source = GenerativeProfileSource(PopulationSpec(
        ...     tenant_count=4, initial_credit=10.0))
        >>> registry = GenerativeTenantRegistry(source)
        >>> _ = registry.activate("t00000", now=0.0)
        >>> _ = registry.activate("t00001", now=0.0)
        >>> registry.materialized_tenant_count()   # arrivals mint no state
        0
        >>> registry.charge("t00001", 2.5, now=1.0)
        >>> registry.materialized_tenant_count(), round(registry.total_credit(), 6)
        (1, 17.5)
        >>> _ = registry.deactivate("t00001", now=2.0)    # state dropped...
        >>> registry.materialized_tenant_count()
        0
        >>> round(registry.credit_by_tenant()["t00001"], 6)  # ...balance kept
        7.5
    """

    def __init__(self, source: "GenerativeProfileSource") -> None:
        super().__init__()
        self._source = source
        self._minted = 0
        self._owned_minted = 0
        self._seed_total = 0.0
        self._withdrawn_total = 0.0
        self._live_indices: Set[int] = set()
        self._archived: Dict[int, Tuple[float, float]] = {}
        self._adhoc_ids: List[str] = []
        self.peak_materialized = 0

    # -- generative internals --------------------------------------------------

    @property
    def source(self) -> "GenerativeProfileSource":
        """The pure profile derivation backing this registry."""
        return self._source

    @property
    def population_minted(self) -> int:
        """Population indices observed so far (owned and foreign alike)."""
        return self._minted

    def _owned_index(self, index: Optional[int], tenant_id: str) -> bool:
        """Ownership hook: whether this registry accounts for the tenant
        (``index`` is ``None`` for ad-hoc ids). Every tenant, here; a
        subclass that narrows it rejects foreign ``ensure``/``register``
        calls itself."""
        return True

    def _advance_minted(self, new_minted: int) -> None:
        """Observe population indices up to ``new_minted`` (exclusive).

        Minting is pure bookkeeping: for each newly observed *owned*
        index the seed credit joins the conserved total, exactly as the
        eager path's up-front registration would have deposited it.
        """
        for index in range(self._minted, new_minted):
            if self._owned_index(index, tenant_id_for(index)):
                self._owned_minted += 1
                self._seed_total += self._source.initial_credit_for(index)
        if new_minted > self._minted:
            self._minted = new_minted

    def _materialize(self, index: int) -> TenantState:
        """Build the full state of an owned population tenant on demand."""
        state = TenantState(self._source.profile_for(index))
        archived = self._archived.pop(index, None)
        if archived is not None:
            credit, withdrawn = archived
            spent = state.account.credit - credit
            if spent > 0:
                # Restore the archived balance through the ledger so the
                # wallet's credit is bitwise the archived value; the
                # running aggregates already counted these charges, so
                # they are NOT re-added to ``_withdrawn_total``.
                state.account.withdraw(spent, 0.0, CATEGORY_TENANT_CHARGE,
                                       note="rematerialized")
            state.active = index in self._live_indices
        self._states[state.tenant_id] = state
        if len(self._states) > self.peak_materialized:
            self.peak_materialized = len(self._states)
        return state

    # -- overridden registry surface -------------------------------------------

    def register(self, profile: TenantProfile) -> TenantState:
        """Register an ad-hoc tenant; population profiles are generative.

        Explicitly registering a population member would shadow the pure
        derivation (and break the drop-at-churn contract), so only ids
        outside the population's id scheme are accepted.
        """
        if self._source.index_of(profile.tenant_id) is not None:
            raise EconomyError(
                f"tenant {profile.tenant_id!r} is a population member; its "
                "profile is generative and must not be registered explicitly"
            )
        state = super().register(profile)
        self._adhoc_ids.append(profile.tenant_id)
        if len(self._states) > self.peak_materialized:
            self.peak_materialized = len(self._states)
        return state

    def ensure(self, tenant_id: str) -> TenantState:
        state = self._states.get(tenant_id)
        if state is not None:
            return state
        index = self._source.index_of(tenant_id)
        if index is not None:
            if index >= self._minted:
                self._advance_minted(index + 1)
            return self._materialize(index)
        # Auto-registration dispatches back through :meth:`register`, which
        # records the ad-hoc id and the materialisation peak.
        return super().ensure(tenant_id)

    def activate(self, tenant_id: str, now: float = 0.0
                 ) -> Optional[TenantState]:
        """Observe an arrival; mints bookkeeping, not state.

        Returns the tenant's state only if it happens to be materialised
        already (re-arrival after traffic); a fresh arrival returns
        ``None`` — the state appears at the tenant's first query.
        """
        index = self._source.index_of(tenant_id)
        if index is None:
            if not self._owned_index(None, tenant_id):
                return None
            return super().activate(tenant_id, now)
        if index >= self._minted:
            self._advance_minted(index + 1)
        if not self._owned_index(index, tenant_id):
            return None
        self._live_indices.add(index)
        state = self._states.get(tenant_id)
        if state is not None:
            state.active = True
            state.activated_at_s = now
            state.churned_at_s = None
        return state

    def deactivate(self, tenant_id: str, now: float = 0.0
                   ) -> Optional[TenantState]:
        """Observe a churn; drops the tenant's state, keeping its balance.

        Unlike the eager base class this never raises for a tenant that
        was announced but never materialised — that is the common case at
        scale, and exactly the memory the generative registry saves.
        """
        index = self._source.index_of(tenant_id)
        if index is None:
            if not self._owned_index(None, tenant_id):
                return None
            return super().deactivate(tenant_id, now)
        if not self._owned_index(index, tenant_id):
            return None
        self._live_indices.discard(index)
        state = self._states.pop(tenant_id, None)
        if state is not None:
            state.active = False
            state.churned_at_s = now
            self.churned_ledgers_folded += 1
            if ledger_fold(state.account) != state.account.credit:
                self.churned_ledger_mismatches += 1
            if state.account.total_withdrawn() > 0:
                self._archived[index] = (state.account.credit,
                                         state.account.total_withdrawn())
        return state

    def charge(self, tenant_id: str, amount: float, now: float = 0.0,
               note: str = "") -> None:
        super().charge(tenant_id, amount, now=now, note=note)
        if amount > 0:
            self._withdrawn_total += amount

    def __contains__(self, tenant_id: str) -> bool:
        index = self._source.index_of(tenant_id)
        if index is not None:
            return index < self._minted and self._owned_index(index, tenant_id)
        return super().__contains__(tenant_id)

    def __len__(self) -> int:
        return self._owned_minted + len(self._adhoc_ids)

    def tenant_ids(self) -> List[str]:
        """All owned tenant ids ever minted, in mint order (O(minted))."""
        ids = [tenant_id_for(index) for index in range(self._minted)
               if self._owned_index(index, tenant_id_for(index))]
        ids.extend(self._adhoc_ids)
        return ids

    def active_ids(self) -> List[str]:
        """Ids of currently live owned tenants, in mint order."""
        ids = [tenant_id_for(index) for index in sorted(self._live_indices)]
        ids.extend(tid for tid in self._adhoc_ids
                   if self._states[tid].active)
        return ids

    # ``states()`` intentionally keeps the base behaviour: it exposes the
    # *materialised* states only. Enumerating every minted tenant would
    # defeat the registry's purpose; callers that need population-wide
    # values use ``credit_by_tenant`` / the aggregates below.

    # -- aggregates ------------------------------------------------------------

    def total_credit(self) -> float:
        """Seed credit minted so far minus everything charged (O(1))."""
        return self._seed_total - self._withdrawn_total

    def total_charged(self) -> float:
        """Every query payment charged to owned tenants so far (O(1))."""
        return self._withdrawn_total

    def seed_credit(self) -> float:
        """Seed credit of every owned tenant minted so far (O(1))."""
        return self._seed_total

    def credit_by_tenant(self) -> Dict[str, float]:
        """Wallet balance per owned tenant id, in mint order (O(minted)).

        Bitwise identical to the eager registry's values: materialised
        wallets replayed the same charges, archived wallets froze at
        churn, and an untouched tenant's balance *is* its derivable seed
        credit.
        """
        balances: Dict[str, float] = {}
        for index in range(self._minted):
            tenant_id = tenant_id_for(index)
            if not self._owned_index(index, tenant_id):
                continue
            state = self._states.get(tenant_id)
            if state is not None:
                balances[tenant_id] = state.account.credit
            elif index in self._archived:
                balances[tenant_id] = self._archived[index][0]
            else:
                balances[tenant_id] = self._source.initial_credit_for(index)
        for tenant_id in self._adhoc_ids:
            balances[tenant_id] = self._states[tenant_id].account.credit
        return balances

    def live_tenant_count(self) -> int:
        """Owned tenants that have arrived and not churned (O(live))."""
        live = len(self._live_indices)
        live += sum(1 for tid in self._adhoc_ids if self._states[tid].active)
        return live

    def materialized_tenant_count(self) -> int:
        """Owned tenants currently holding a full state object."""
        return len(self._states)
