"""A tenant registry that *owns* only one shard of the population.

The sharded execution model (see ``docs/sharding.md``) replays the full
deterministic event stream in every worker but materialises mutable
per-tenant state — wallet ledgers, per-tenant regret trackers, lifecycle
flags — only for the tenants the worker's shard owns. That split is sound
because of an invariant the engine already upholds: simulation *decisions*
depend only on a tenant's static :class:`~repro.economy.tenancy.TenantProfile`
(budget multiplier, optional user model), never on the tenant's mutable
state. A wallet balance is pure accounting output; it cannot change which
plan wins a negotiation.

:class:`ShardScopedRegistry` is a
:class:`~repro.economy.tenancy.TenantRegistry` over the population's
generative profile source whose ownership hook is the shared partitioner.
The hook hashes each population index once, when the index is first
minted; every later ownership question reads the registry's mask. The
registry answers the engine's hooks in two modes:

* **owned tenant** — exactly the registry's population behaviour: state
  mints at arrival, materialises at first query, and drops back to (at
  most) two floats at churn.
* **foreign tenant** — the *decision-relevant* part is replicated bitwise
  (the budget function is derived from the same generative profile the
  owning shard uses), while the accounting part is skipped; the amount
  that would have been charged is only tallied into
  :attr:`foreign_charged` for the coordinator's cross-shard conservation
  audit.

No profile table is held, not even for owned tenants, so per-worker memory
is bounded by the shard's concurrently live (and charged) tenants, never by
the population. Materialising a foreign tenant's state is a bug by
definition, so :meth:`ensure` raises for foreign ids rather than silently
registering.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from repro.economy.budget import BudgetFunction
from repro.economy.tenancy import TenantProfile, TenantRegistry, TenantState
from repro.economy.user_model import UserModel
from repro.errors import EconomyError, ShardingError
from repro.sharding.partition import TenantPartitioner
from repro.workload.population import (Cohort, GenerativeProfileSource,
                                       tenant_id_for)
from repro.workload.query import Query


class ShardScopedRegistry(TenantRegistry):
    """A generative :class:`TenantRegistry` scoped to one shard.

    Args:
        source: the pure profile derivation shared by all shards.
        partitioner: the tenant → shard mapping shared by all workers.
        shard_index: which shard this registry embodies.

    Example:
        >>> from repro.workload.population import PopulationSpec
        >>> source = GenerativeProfileSource(PopulationSpec(
        ...     tenant_count=4, initial_credit=10.0))
        >>> partitioner = TenantPartitioner(2)
        >>> registry = ShardScopedRegistry(source, partitioner, 0)
        >>> foreign = next(f"t{i:05d}" for i in range(4)
        ...                if not partitioner.owns(0, f"t{i:05d}"))
        >>> _ = registry.activate(foreign)          # mints, accounts nothing
        >>> registry.charge(foreign, 2.0, now=1.0)  # tallied, not booked
        >>> registry.foreign_charged, registry.total_charged()
        (2.0, 0.0)
    """

    def __init__(self, source: GenerativeProfileSource,
                 partitioner: TenantPartitioner, shard_index: int) -> None:
        partitioner.validate_index(shard_index)
        super().__init__(source)
        self._partitioner = partitioner
        self._shard_index = shard_index
        self._foreign_charged = 0.0
        self._foreign_charge_count = 0
        # Ad-hoc ids (outside the population's id scheme) are indexed by
        # first touch: every shard observes the same replicated call
        # stream, so the counter advances identically everywhere and the
        # merge can reproduce the unsharded registry's registration order.
        self._adhoc_index: Dict[str, int] = {}

    # -- introspection ---------------------------------------------------------

    @property
    def partitioner(self) -> TenantPartitioner:
        """The shared tenant → shard mapping."""
        return self._partitioner

    @property
    def shard_index(self) -> int:
        """Which shard this registry owns."""
        return self._shard_index

    @property
    def population_size(self) -> int:
        """Population indices minted so far (owned + foreign)."""
        return self.population_minted

    @property
    def foreign_charged(self) -> float:
        """Dollars of charges observed for tenants other shards own.

        The owning shard books each of these against the actual wallet;
        this tally only exists so the coordinator can audit that every
        charge was owned by exactly one shard.
        """
        return self._foreign_charged

    @property
    def foreign_charge_count(self) -> int:
        """How many non-zero foreign charges were observed."""
        return self._foreign_charge_count

    def owns(self, tenant_id: str) -> bool:
        """Whether this shard owns ``tenant_id`` (a minted population id
        reads the ownership mask; any other id is hashed)."""
        index = self._index_of(tenant_id)
        if index is not None and index < self._minted:
            return bool(self._owned[index])
        return self._partitioner.owns(self._shard_index, tenant_id)

    def _owned_index(self, index: int) -> bool:
        return (self._partitioner.shard_of(tenant_id_for(index))
                == self._shard_index)

    def _foreign_adhoc(self, tenants: Union[str, Cohort]) -> bool:
        """Whether ``tenants`` is one ad-hoc id another shard owns."""
        return (isinstance(tenants, str)
                and self._index_of(tenants) is None
                and not self.owns(tenants))

    def _note_touch(self, tenant_id: str) -> None:
        """Record first contact with an id outside the population scheme.

        Called on every hook a query stream can reach, owned or foreign,
        so the counter is replicated bitwise across shards; the resulting
        index orders ad-hoc wallets exactly like the unsharded registry's
        registration order. Population ids are ordered by their index.
        """
        if (tenant_id in self._adhoc_index
                or self._source.index_of(tenant_id) is not None):
            return
        self._adhoc_index[tenant_id] = len(self._adhoc_index)

    def _require_owned(self, tenant_id: str) -> None:
        if not self.owns(tenant_id):
            raise ShardingError(
                f"tenant {tenant_id!r} belongs to shard "
                f"{self._partitioner.shard_of(tenant_id)}, not "
                f"{self._shard_index}; foreign state must never materialise"
            )

    # -- scoping guards --------------------------------------------------------

    def register(self, profile: TenantProfile) -> TenantState:
        """Register an ad-hoc owned tenant; foreign profiles are rejected."""
        self._note_touch(profile.tenant_id)
        self._require_owned(profile.tenant_id)
        return super().register(profile)

    def ensure(self, tenant_id: str) -> TenantState:
        """The owned tenant's state; raises for tenants of other shards."""
        state = self._states.get(tenant_id)
        if state is not None:
            # Only owned tenants ever materialise, and their first touch
            # was noted when they did.
            return state
        self._note_touch(tenant_id)
        self._require_owned(tenant_id)
        return super().ensure(tenant_id)

    def activate(self, tenants: Union[str, range], now: float = 0.0
                 ) -> Optional[TenantState]:
        """Observe an arrival: every shard mints, only the owner accounts."""
        if isinstance(tenants, str):
            self._note_touch(tenants)
        if self._foreign_adhoc(tenants):
            return None
        return super().activate(tenants, now=now)

    def deactivate(self, tenants: Union[str, Cohort], now: float = 0.0
                   ) -> Optional[TenantState]:
        """Observe a churn; a foreign ad-hoc id is not this shard's."""
        if self._foreign_adhoc(tenants):
            return None
        return super().deactivate(tenants, now=now)

    # -- economy hooks ---------------------------------------------------------

    def budget_for(self, query: Query, backend_price: float,
                   backend_response_time_s: float,
                   default_model: UserModel) -> BudgetFunction:
        """The issuing tenant's budget, identical on every shard.

        For owned tenants this is the registry's own budget. For
        foreign tenants the same curve is derived from the *generative*
        profile — a pure function of the population seed and the tenant's
        index — without touching any mutable state. Ids at or beyond the
        mint high-water mark (and ad-hoc ids) derive a ``None`` profile,
        i.e. the neutral budget an auto-registered tenant gets.
        """
        tenant_id = query.tenant_id
        self._note_touch(tenant_id)
        if self.owns(tenant_id):
            return super().budget_for(query, backend_price,
                                      backend_response_time_s, default_model)
        index = self._source.index_of(tenant_id)
        profile = None
        if index is not None and index < self.population_minted:
            profile = self._source.profile_for(index)
        return TenantRegistry.derive_budget(
            profile, query, backend_price, backend_response_time_s,
            default_model,
        )

    def charge(self, tenant_id: str, amount: float, now: float = 0.0,
               note: str = "") -> None:
        """Charge an owned wallet; tally (don't book) foreign charges."""
        if amount < 0:
            raise EconomyError(f"charge must be non-negative, got {amount}")
        if amount == 0:
            # Mirrors the base method, which returns before ensure(): a
            # zero charge must not reserve an ad-hoc registration slot.
            return
        self._note_touch(tenant_id)
        if self.owns(tenant_id):
            super().charge(tenant_id, amount, now=now, note=note)
            return
        self._foreign_charged += amount
        self._foreign_charge_count += 1

    def record_regret(self, tenant_id: str, structures, amount: float,
                      divide: bool = False) -> None:
        """Record regret for owned tenants only (others own their mirror)."""
        self._note_touch(tenant_id)
        if self.owns(tenant_id):
            super().record_regret(tenant_id, structures, amount,
                                  divide=divide)

    # -- merge support ---------------------------------------------------------

    def adhoc_ranks(self) -> Tuple[int, ...]:
        """The global first-touch rank of each owned ad-hoc wallet, in
        :meth:`wallets` order.

        Every shard observes the same replicated call stream, so the ranks
        never collide across shards, and sorting the shards' ad-hoc
        wallets by them rebuilds the unsharded registration order.
        """
        return tuple(self._adhoc_index[tenant_id]
                     for tenant_id in self._adhoc_ids)
