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
costs no more per query than the single-tenant path. Given the population's
generative profile source it is also *bounded*: a population tenant's state
exists only between its first query and its churn, so memory follows the
live tenants, not the population. The single-tenant path itself is
untouched — an engine constructed without a registry behaves byte-for-byte
as before, and queries default to :data:`DEFAULT_TENANT_ID`.

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
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Set, Tuple

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
        charged: the running left fold of every charge the tenant paid,
            carried across churn (see :meth:`TenantRegistry.deactivate`).

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
        self.charged = 0.0

    @property
    def tenant_id(self) -> str:
        """The tenant's identifier (shorthand for ``profile.tenant_id``)."""
        return self.profile.tenant_id


class WalletBook(NamedTuple):
    """One tenant's wallet as the registry books it."""

    seed: float
    credit: float
    charged: float

    @classmethod
    def of(cls, state: TenantState) -> "WalletBook":
        """The book of a held state."""
        return cls(state.profile.initial_credit, state.account.credit,
                   state.charged)


class TenantRegistry:
    """Holds every tenant's wallet, budget policy, and regret tracker.

    The registry is the engine's window into the population: budgets are
    built per tenant (:meth:`budget_for`), query charges are settled against
    the issuing tenant's wallet (:meth:`charge`), and regret is recorded
    both globally (by the engine) and per tenant (:meth:`record_regret`).

    Tenants come in two kinds:

    * **ad-hoc** tenants (every id when ``source`` is ``None``, and ids
      outside the population's id scheme otherwise) are registered
      explicitly (:meth:`register`) or auto-registered with a neutral
      profile at first touch, and keep their state for the whole run —
      churn only marks them inactive;
    * **population** tenants (ids the ``source`` maps back to a tenant
      index) exist only while the simulation needs them. Their profiles
      derive on demand from a
      :class:`~repro.workload.population.GenerativeProfileSource`, a pure
      function of ``(population seed, tenant index)``. An arrival
      (:meth:`activate`) only advances the mint high-water mark and the
      seed-credit aggregate; the full :class:`TenantState` materialises
      at the tenant's first query (:meth:`ensure`, reached through
      ``budget_for``/``charge``); churn (:meth:`deactivate`) drops it
      again, archiving a charged wallet as its :class:`WalletBook` (seed,
      balance, charged total). A returning tenant resumes from the
      archive.

    Resident states are therefore bounded by the tenants that are both
    live and charged, never by the population. Aggregates
    (:meth:`total_credit`, :meth:`total_charged`) are O(1) running sums.
    Each wallet's charged total is a running left fold of its charges,
    carried through drop and rematerialisation, so it is bitwise the sum
    a wallet that was never dropped would report. A wallet's ledger is
    folded when churn drops it (:attr:`churned_ledgers_folded`,
    :attr:`churned_ledger_mismatches`), so a conservation audit still
    covers the wallets no longer held.

    The registry accounts for every tenant; a subclass may narrow that
    through the :meth:`_owned_index` hook (the sharded execution layer
    scopes it to one shard). Population tenants it does not own are
    tracked only through the mint high-water mark.

    Args:
        source: the pure profile derivation of the population, or
            ``None`` for a registry of ad-hoc tenants only.

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

        With a source, population tenants materialise and drop on demand:

        >>> from repro.workload.population import (GenerativeProfileSource,
        ...                                        PopulationSpec)
        >>> source = GenerativeProfileSource(PopulationSpec(
        ...     tenant_count=4, initial_credit=10.0))
        >>> registry = TenantRegistry(source)
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

    def __init__(self,
                 source: Optional["GenerativeProfileSource"] = None) -> None:
        self._source = source
        self._states: Dict[str, TenantState] = {}
        self._adhoc_ids: List[str] = []
        self._minted = 0
        self._owned_minted = 0
        self._seed_total = 0.0
        self._charged_total = 0.0
        self._live_indices: Set[int] = set()
        self._archived: Dict[int, WalletBook] = {}
        self.peak_materialized = 0
        self.churned_ledgers_folded = 0
        self.churned_ledger_mismatches = 0

    @property
    def source(self) -> Optional["GenerativeProfileSource"]:
        """The population's profile derivation (``None``: ad-hoc only)."""
        return self._source

    @property
    def population_minted(self) -> int:
        """Population indices observed so far (owned and foreign alike)."""
        return self._minted

    # -- population internals --------------------------------------------------

    def _index_of(self, tenant_id: str) -> Optional[int]:
        """The population index behind ``tenant_id``; ``None`` if ad-hoc."""
        if self._source is None:
            return None
        return self._source.index_of(tenant_id)

    def _owned_index(self, index: Optional[int], tenant_id: str) -> bool:
        """Ownership hook: whether this registry accounts for the tenant
        (``index`` is ``None`` for ad-hoc ids). Every tenant, here; a
        subclass that narrows it rejects foreign ``ensure``/``register``
        calls itself."""
        return True

    def _advance_minted(self, new_minted: int) -> None:
        """Observe population indices up to ``new_minted`` (exclusive).

        For each newly observed *owned* index the seed credit joins the
        conserved total, as an up-front deposit would have.
        """
        for index in range(self._minted, new_minted):
            if self._owned_index(index, tenant_id_for(index)):
                self._owned_minted += 1
                self._seed_total += self._source.initial_credit_for(index)
        if new_minted > self._minted:
            self._minted = new_minted

    def _hold(self, state: TenantState) -> TenantState:
        self._states[state.tenant_id] = state
        if len(self._states) > self.peak_materialized:
            self.peak_materialized = len(self._states)
        return state

    def _materialize(self, index: int) -> TenantState:
        """Build the full state of an owned population tenant on demand."""
        state = TenantState(self._source.profile_for(index))
        archived = self._archived.pop(index, None)
        if archived is not None:
            spent = state.account.credit - archived.credit
            if spent > 0:
                # Restore the archived balance through the ledger; the
                # running aggregates already counted these charges, and
                # the charged total resumes from the archive.
                state.account.withdraw(spent, 0.0, CATEGORY_TENANT_CHARGE,
                                       note="rematerialized")
            state.charged = archived.charged
            state.active = index in self._live_indices
        return self._hold(state)

    def _drop(self, index: int, state: TenantState) -> None:
        """Fold a churned wallet's ledger and archive it if it was charged."""
        self.churned_ledgers_folded += 1
        if ledger_fold(state.account) != state.account.credit:
            self.churned_ledger_mismatches += 1
        if state.charged > 0:
            self._archived[index] = WalletBook.of(state)

    # -- registration ----------------------------------------------------------

    def register(self, profile: TenantProfile) -> TenantState:
        """Add one ad-hoc tenant; re-registering an id is an error.

        A population member's profile is generative, so registering one
        explicitly (which would shadow the derivation and break the
        drop-at-churn contract) is an error too.

        Args:
            profile: the tenant's static description.

        Returns:
            The freshly created :class:`TenantState`.
        """
        if self._index_of(profile.tenant_id) is not None:
            raise EconomyError(
                f"tenant {profile.tenant_id!r} is a population member; its "
                "profile is generative and must not be registered explicitly"
            )
        if profile.tenant_id in self._states:
            raise EconomyError(f"tenant {profile.tenant_id!r} already registered")
        self._adhoc_ids.append(profile.tenant_id)
        self._seed_total += profile.initial_credit
        return self._hold(TenantState(profile))

    def ensure(self, tenant_id: str) -> TenantState:
        """The tenant's state, materialised or auto-registered if needed.

        A population tenant materialises from its generative profile (and
        its archived wallet, if churn dropped one). Any other id is
        auto-registered with a neutral profile — an empty wallet and the
        engine's baseline budget policy — which keeps the default tenant
        (and ad-hoc ids in tests) working without a population.

        Args:
            tenant_id: the tenant to look up.

        Returns:
            The (possibly new) :class:`TenantState`.
        """
        state = self._states.get(tenant_id)
        if state is not None:
            return state
        index = self._index_of(tenant_id)
        if index is None:
            return self.register(TenantProfile(tenant_id))
        if index >= self._minted:
            self._advance_minted(index + 1)
        return self._materialize(index)

    # -- lookups ---------------------------------------------------------------

    def state(self, tenant_id: str) -> TenantState:
        """The tenant's held state; raises if it is not held."""
        try:
            return self._states[tenant_id]
        except KeyError:
            raise EconomyError(f"unknown tenant {tenant_id!r}") from None

    def __contains__(self, tenant_id: str) -> bool:
        index = self._index_of(tenant_id)
        if index is not None:
            return index < self._minted and self._owned_index(index, tenant_id)
        return tenant_id in self._states

    def __len__(self) -> int:
        return self._owned_minted + len(self._adhoc_ids)

    def tenant_ids(self) -> List[str]:
        """Owned population ids in mint order, then ad-hoc ids in
        registration order (O(minted))."""
        ids = [tenant_id_for(index) for index in range(self._minted)
               if self._owned_index(index, tenant_id_for(index))]
        ids.extend(self._adhoc_ids)
        return ids

    def active_ids(self) -> List[str]:
        """Ids of currently live tenants, in :meth:`tenant_ids` order."""
        ids = [tenant_id_for(index) for index in sorted(self._live_indices)]
        ids.extend(tid for tid in self._adhoc_ids if self._states[tid].active)
        return ids

    def states(self) -> Tuple[TenantState, ...]:
        """Every *held* tenant state, in materialisation order.

        Population tenants that never queried, or that churn dropped, are
        not held; :meth:`wallet_books` covers every tenant.
        """
        return tuple(self._states.values())

    # -- lifecycle -------------------------------------------------------------

    def activate(self, tenant_id: str, now: float = 0.0
                 ) -> Optional[TenantState]:
        """Observe an arrival.

        An ad-hoc id is auto-registered and marked active. A population
        arrival mints bookkeeping, not state: it returns the tenant's
        state only if it is materialised already, else ``None`` — the
        state appears at the tenant's first query.

        Args:
            tenant_id: the arriving tenant.
            now: simulated arrival instant.
        """
        index = self._index_of(tenant_id)
        if index is None:
            if not self._owned_index(None, tenant_id):
                return None
            state = self.ensure(tenant_id)
        else:
            if index >= self._minted:
                self._advance_minted(index + 1)
            if not self._owned_index(index, tenant_id):
                return None
            self._live_indices.add(index)
            state = self._states.get(tenant_id)
            if state is None:
                return None
        state.active = True
        state.activated_at_s = now
        state.churned_at_s = None
        return state

    def deactivate(self, tenant_id: str, now: float = 0.0
                   ) -> Optional[TenantState]:
        """Observe a churn.

        An ad-hoc tenant is marked churned and keeps its wallet (an
        unknown ad-hoc id raises). A population tenant's state is
        dropped, keeping its balance and charged total; a tenant that was
        announced but never materialised returns ``None``.

        Args:
            tenant_id: the churning tenant.
            now: simulated churn instant.
        """
        index = self._index_of(tenant_id)
        if index is None:
            if not self._owned_index(None, tenant_id):
                return None
            state = self.state(tenant_id)
        else:
            if not self._owned_index(index, tenant_id):
                return None
            self._live_indices.discard(index)
            state = self._states.pop(tenant_id, None)
            if state is None:
                return None
        state.active = False
        state.churned_at_s = now
        if index is not None:
            self._drop(index, state)
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
        state.charged += amount
        self._charged_total += amount

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
        """Zero a structure's regret on every held tenant tracker (it got
        built)."""
        for state in self._states.values():
            state.regret.reset(key)

    # -- aggregates ------------------------------------------------------------

    def total_credit(self) -> float:
        """Seed credit minted so far minus everything charged (O(1))."""
        return self._seed_total - self._charged_total

    def total_charged(self) -> float:
        """Every query payment charged to owned tenants so far (O(1))."""
        return self._charged_total

    def seed_credit(self) -> float:
        """Seed credit of every owned tenant minted or registered so far."""
        return self._seed_total

    def wallet_books(self) -> Dict[str, WalletBook]:
        """Every owned tenant's wallet, in :meth:`tenant_ids` order.

        Held states report their live wallet, churned wallets their
        archive, and a population tenant that was never charged its
        derivable seed credit (O(minted)).
        """
        books: Dict[str, WalletBook] = {}
        for index in range(self._minted):
            tenant_id = tenant_id_for(index)
            if not self._owned_index(index, tenant_id):
                continue
            state = self._states.get(tenant_id)
            if state is not None:
                books[tenant_id] = WalletBook.of(state)
            elif index in self._archived:
                books[tenant_id] = self._archived[index]
            else:
                seed = self._source.initial_credit_for(index)
                books[tenant_id] = WalletBook(seed, seed, 0.0)
        for tenant_id in self._adhoc_ids:
            books[tenant_id] = WalletBook.of(self._states[tenant_id])
        return books

    def credit_by_tenant(self) -> Dict[str, float]:
        """Wallet balance per owned tenant, in :meth:`tenant_ids` order."""
        return {tenant_id: book.credit
                for tenant_id, book in self.wallet_books().items()}

    def live_tenant_count(self) -> int:
        """Owned tenants that have arrived (or registered) and not churned."""
        live = len(self._live_indices)
        live += sum(1 for tid in self._adhoc_ids if self._states[tid].active)
        return live

    def materialized_tenant_count(self) -> int:
        """Owned tenants currently holding a full state object."""
        return len(self._states)
