"""The partitioned economy engine: one partition's slice of the economy.

A :class:`PartitionedEconomyEngine` is an
:class:`~repro.economy.engine.EconomyEngine` whose cache is a
:class:`~repro.distcache.manager.PartitionedCacheManager` and whose
account is a per-partition provider **sub-account** (the caller seeds it
with ``initial_credit / partition_count``). It plans, settles and invests
exactly as the base engine does. What the partition changes are inputs:
the engine reads from its cache who owns a key, which entries other
partitions advertise and which columns they hold, and the rules of
:mod:`repro.economy.decisions` turn those into four documented
divergences from the global-cache economy (``docs/distcache.md``):

1. **Remote-aware pricing** (``remote_terms``). A missing structure
   another partition advertises makes the plan *existing*: no build, but
   the :class:`~repro.economy.decisions.RemoteAccessModel` surcharge on
   its execution cost, network traffic and response time.
2. **Owned-only investment** (``build_pieces``). Only owned structures
   are built; an index may read remote columns, but is not built when a
   key column is foreign-owned and not advertised.
3. **Owned-only regret with barrier forwarding** (``attribute_regret``).
   Regret on foreign-owned structures is tallied and forwarded to the
   owner at the next settlement barrier, so demand observed anywhere
   reaches the one partition allowed to invest, up to one epoch late.
4. **No cross-partition maintenance billing.** A remote access pays its
   surcharge out of *this* sub-account; the owner's maintenance and
   amortisation are recovered by the owner's own traffic, so a remote
   structure's idle clock keeps running on its owner.

This class adds only what the settlement barriers read and write: the
remote tallies, foreign regret, placement bids, regret handoffs and the
barrier audit's folds.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.costmodel.amortization import AmortizationPolicy
from repro.costmodel.build import StructureCostModel
from repro.economy.account import ConservationFolds
from repro.economy.engine import EconomyConfig, EconomyEngine
from repro.economy.tenancy import TenantRegistry
from repro.distcache.manager import PartitionedCacheManager
from repro.errors import DistCacheError
from repro.planner.enumerator import PlanEnumerator
from repro.structures.base import CacheStructure


class PartitionedEconomyEngine(EconomyEngine):
    """An :class:`EconomyEngine` scoped to one cache partition."""

    def __init__(self, enumerator: PlanEnumerator,
                 structure_costs: StructureCostModel,
                 cache: PartitionedCacheManager,
                 config: EconomyConfig = EconomyConfig(),
                 amortization: Optional[AmortizationPolicy] = None,
                 tenants: Optional[TenantRegistry] = None,
                 record_placement_bids: bool = False) -> None:
        if not isinstance(cache, PartitionedCacheManager):
            raise DistCacheError(
                "PartitionedEconomyEngine requires a PartitionedCacheManager"
            )
        super().__init__(enumerator, structure_costs, cache=cache,
                         config=config, amortization=amortization,
                         tenants=tenants)
        self._record_bids = record_placement_bids
        #: Total regret absorbed from other partitions so far.
        self.forwarded_regret_received = 0.0
        #: The conservation folds the barrier audits resume, riding with
        #: the partition's state from epoch to epoch.
        self.barrier_folds = ConservationFolds()

    # -- introspection ---------------------------------------------------------

    @property
    def partition_index(self) -> int:
        """The partition this engine's cache owns."""
        return self.partitioned_cache.partition_index

    @property
    def partitioned_cache(self) -> PartitionedCacheManager:
        """The cache, typed as its partition-scoped subclass."""
        cache = self.cache
        assert isinstance(cache, PartitionedCacheManager)
        return cache

    # -- regret forwarding ------------------------------------------------------

    def drain_foreign_regret(self
                             ) -> Tuple[Tuple[CacheStructure, float], ...]:
        """Hand over (and clear) regret owed to other partitions.

        Called by the runner at every settlement barrier; entries come
        back in first-touch order, which keeps the forwarding exchange
        deterministic.
        """
        items = tuple(self._foreign_regret.values())
        self._foreign_regret.clear()
        return items

    def absorb_forwarded_regret(
            self, items: Sequence[Tuple[CacheStructure, float]]) -> None:
        """Credit regret another partition observed for structures we own.

        The forwarded demand lands on the provider-side regret tracker
        only (the borrowing tenant's per-tenant mirror stays where the
        query ran); the next locally processed query evaluates the
        investment rule against it as usual.
        """
        cache = self.partitioned_cache
        for structure, amount in items:
            if not cache.owns(structure.key):
                raise DistCacheError(
                    f"regret for {structure.key!r} forwarded to partition "
                    f"{cache.partition_index}, which does not own it"
                )
            if cache.contains(structure.key):
                continue
            self._regret.distribute((structure,), amount)
            self.forwarded_regret_received += amount

    # -- placement bids --------------------------------------------------------

    def drain_placement_bids(self) -> Tuple[Tuple[str, float], ...]:
        """Hand over (and clear) this epoch's per-structure benefit tally.

        Each chosen plan's structure accesses are valued through the
        remote-access model — a remote access at the surcharge it
        actually paid, a local access at the surcharge it avoided — so
        the adaptive :class:`~repro.distcache.placement.PlacementPolicy`
        compares challenger and incumbent in the same currency. Entries
        come back in first-touch order (deterministic: the query stream
        is replayed in a fixed order). Recording is pure observation and
        only happens when the engine was built with
        ``record_placement_bids=True`` (adaptive runs) — hash-placement
        runs never pay for, pickle, or drain the tally.
        """
        items = tuple(self._placement_bids.items())
        self._placement_bids.clear()
        return items

    def surrender_regret(self, key: str) -> float:
        """Release a handed-off structure's in-flight regret.

        Part of an ownership handoff: demand signal already accumulated
        here must follow the structure to its new owner
        (:meth:`adopt_regret`), or the new owner would rediscover it one
        epoch late. Returns the amount released (usually 0.0 for a
        resident structure — building it reset the regret — but eviction
        races can leave a residue).
        """
        return self._regret.reset(key)

    def adopt_regret(self, structure: CacheStructure, amount: float) -> None:
        """Take over the regret a structure's previous owner released."""
        if amount > 0:
            self._regret.distribute((structure,), amount)
