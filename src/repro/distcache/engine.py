"""The partitioned economy engine: one partition's slice of the economy.

A :class:`PartitionedEconomyEngine` is an
:class:`~repro.economy.engine.EconomyEngine` whose cache is a
:class:`~repro.distcache.manager.PartitionedCacheManager` and whose
account is a per-partition provider **sub-account** (the caller seeds it
with ``initial_credit / partition_count``). Four behaviours change, each
a documented divergence from the global-cache economy
(``docs/distcache.md``):

1. **Remote-aware pricing.** A plan structure that is absent locally but
   advertised by the directory is *existing*, not *possible*: the plan
   needs no build, but each remote structure adds the
   :class:`RemoteAccessModel` surcharge to its execution cost, network
   traffic, and response time — a remote hit is not a local hit.
2. **Owned-only investment.** The engine only ever builds structures its
   partition owns; an index build may *read* remote or local columns but
   aborts if a required column is foreign-owned and not advertised
   (nobody here may materialise it).
3. **Owned-only regret with barrier forwarding.** Regret — the
   build-investment signal — lands on the local tracker only for
   structures this partition owns. Regret earned on *foreign-owned*
   missing structures is tallied separately and forwarded to the owning
   partition at the next settlement barrier (piggybacking on the
   directory exchange), so demand observed anywhere still reaches the
   one partition allowed to invest — with up to one epoch of lag.
4. **No cross-partition maintenance billing.** A remote access pays the
   surcharge to *this* partition's sub-account (it banked the user's
   payment and pays the transfer out of it); the owner's maintenance and
   amortisation are recovered by the owner's own traffic. A remote
   structure's idle clock therefore keeps running on its owner even while
   borrowers use it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.costmodel.amortization import AmortizationPolicy
from repro.costmodel.build import StructureCostModel
from repro.economy.batch import BatchPricingContext
from repro.economy.engine import EconomyConfig, EconomyEngine, StructureBuild
from repro.economy.negotiation import NegotiationResult
from repro.economy.pricing import PricedPlan
from repro.economy.tenancy import TenantRegistry
from repro.distcache.manager import PartitionedCacheManager
from repro.errors import DistCacheError
from repro.planner.enumerator import PlanEnumerator
from repro.structures.base import CacheStructure
from repro.structures.cached_index import CachedIndex
from repro.workload.query import Query

_BYTES_PER_GB = 1024.0 ** 3


@dataclass(frozen=True)
class RemoteAccessModel:
    """The modeled cost of using a structure that lives on another partition.

    Each access to a remote structure ships a fraction of its bytes over
    the interconnect and pays a round trip; the model is deliberately
    simple — two per-GB rates and a flat RTT — because its role is to make
    remote hits *strictly worse than local hits and strictly better than
    rebuilding*, which is what shapes the partitioned economy.

    Attributes:
        transfer_fraction: fraction of the structure's bytes shipped per
            access. Probes and partial scans move far less than the full
            structure; the 1% default keeps a remote hit cheaper than the
            back-end for typical plans while still visibly worse than a
            local hit.
        dollars_per_gb: interconnect bandwidth price per GB shipped.
        seconds_per_gb: added response time per GB shipped.
        rtt_s: flat round-trip latency per remote structure access.

    Example:
        >>> model = RemoteAccessModel()
        >>> dollars, seconds, shipped = model.surcharge(1024 ** 3)
        >>> dollars > 0 and seconds > model.rtt_s and shipped > 0
        True
        >>> RemoteAccessModel().surcharge(0)[0]
        0.0
    """

    transfer_fraction: float = 0.01
    dollars_per_gb: float = 0.01
    seconds_per_gb: float = 0.08
    rtt_s: float = 0.002

    def __post_init__(self) -> None:
        if not 0.0 <= self.transfer_fraction <= 1.0:
            raise DistCacheError(
                f"transfer_fraction must be in [0, 1], got "
                f"{self.transfer_fraction}"
            )
        if min(self.dollars_per_gb, self.seconds_per_gb, self.rtt_s) < 0:
            raise DistCacheError("remote-access rates must be non-negative")

    def surcharge(self, size_bytes: int) -> "tuple[float, float, float]":
        """``(dollars, seconds, shipped_bytes)`` of one access to a
        remote structure of ``size_bytes``."""
        shipped = self.transfer_fraction * size_bytes
        gigabytes = shipped / _BYTES_PER_GB
        dollars = self.dollars_per_gb * gigabytes
        seconds = self.rtt_s + self.seconds_per_gb * gigabytes
        return dollars, seconds, shipped


class PartitionedEconomyEngine(EconomyEngine):
    """An :class:`EconomyEngine` scoped to one cache partition."""

    def __init__(self, enumerator: PlanEnumerator,
                 structure_costs: StructureCostModel,
                 cache: PartitionedCacheManager,
                 config: EconomyConfig = EconomyConfig(),
                 amortization: Optional[AmortizationPolicy] = None,
                 tenants: Optional[TenantRegistry] = None,
                 remote: RemoteAccessModel = RemoteAccessModel(),
                 record_placement_bids: bool = False) -> None:
        if not isinstance(cache, PartitionedCacheManager):
            raise DistCacheError(
                "PartitionedEconomyEngine requires a PartitionedCacheManager"
            )
        super().__init__(enumerator, structure_costs, cache=cache,
                         config=config, amortization=amortization,
                         tenants=tenants)
        self._remote = remote
        self._record_bids = record_placement_bids
        self._remote_hits = 0
        self._remote_structure_accesses = 0
        self._remote_bytes = 0.0
        self._remote_dollars = 0.0
        self._foreign_regret: Dict[str, Tuple[CacheStructure, float]] = {}
        self._forwarded_regret_received = 0.0
        self._placement_bids: Dict[str, float] = {}

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

    @property
    def remote_hits(self) -> int:
        """Chosen plans that used at least one remote structure."""
        return self._remote_hits

    @property
    def remote_structure_accesses(self) -> int:
        """Total remote structure accesses by chosen plans."""
        return self._remote_structure_accesses

    @property
    def remote_bytes(self) -> float:
        """Modeled bytes shipped over the interconnect by chosen plans."""
        return self._remote_bytes

    @property
    def remote_dollars(self) -> float:
        """Modeled interconnect spend of the chosen plans' remote accesses."""
        return self._remote_dollars

    # -- remote-aware pricing --------------------------------------------------

    def _price_plans(self, query: Query, now: float) -> List[PricedPlan]:
        priced = super()._price_plans(query, now)
        if len(self.partitioned_cache.directory) == 0:
            return priced
        return [self._apply_remote(plan) for plan in priced]

    def _apply_remote(self, priced: PricedPlan) -> PricedPlan:
        """Re-price one plan with directory knowledge.

        Structures the base pricer classified as *new* (absent locally)
        but which the directory advertises on another partition become
        remote accesses: no build, no from-scratch amortisation — instead
        the surcharge is folded into the plan's execution estimate, so
        negotiation, charging, and regret all see the true remote price.
        """
        cache = self.partitioned_cache
        remote_entries = []
        local_new = []
        for structure in priced.new_structures:
            entry = cache.remote_entry(structure.key)
            if entry is None:
                local_new.append(structure)
            else:
                remote_entries.append((structure, entry))
        if not remote_entries:
            return priced

        dollars = seconds = shipped = 0.0
        for _, entry in remote_entries:
            access_dollars, access_seconds, access_bytes = \
                self._remote.surcharge(entry.size_bytes)
            dollars += access_dollars
            seconds += access_seconds
            shipped += access_bytes
        execution = priced.plan.execution
        execution = replace(
            execution,
            network_bytes=execution.network_bytes + shipped,
            network_dollars=execution.network_dollars + dollars,
            response_time_s=execution.response_time_s + seconds,
        )
        plan = replace(priced.plan, execution=execution)
        remote_keys = {structure.key for structure, _ in remote_entries}
        amortized_by_structure = {
            key: charge
            for key, charge in priced.amortized_by_structure.items()
            if key not in remote_keys
        }
        return PricedPlan(
            plan=plan,
            execution_dollars=plan.execution_dollars,
            amortized_dollars=sum(amortized_by_structure.values()),
            maintenance_dollars=priced.maintenance_dollars,
            new_structures=tuple(local_new),
            amortized_by_structure=amortized_by_structure,
        )

    def _adjust_batched_pricing(self, context: BatchPricingContext,
                                now: float) -> None:
        """Batched mirror of :meth:`_apply_remote`.

        Rewrites plan-table rows whose missing structures are advertised
        by the directory: the remote surcharge folds into the row's
        execution figures and response time, the remote structures drop
        out of the amortisation sum, and a row whose only missing
        structures are remote counts as existing — exactly the scalar
        re-pricing, expression for expression.
        """
        cache = self.partitioned_cache
        if len(cache.directory) == 0:
            return
        table = context.table
        surcharges: List[Optional[Tuple[float, float, float]]] = []
        any_remote = False
        for slot, structure in enumerate(table.unique_structures):
            if context.cached_flags[slot]:
                surcharges.append(None)
                continue
            entry = cache.remote_entry(structure.key)
            if entry is None:
                surcharges.append(None)
                continue
            surcharges.append(self._remote.surcharge(entry.size_bytes))
            any_remote = True
        if not any_remote:
            return
        context.remote_surcharges = surcharges

        estimates = context.estimates
        column = context.column
        charges = context.charges
        cached_flags = context.cached_flags
        for row_index, row in enumerate(table.rows):
            dollars = seconds = shipped = 0.0
            has_remote = False
            has_local_new = False
            amortized = 0.0
            for slot in row.structure_indices:
                if cached_flags[slot]:
                    amortized += charges[slot]
                    continue
                surcharge = surcharges[slot]
                if surcharge is None:
                    has_local_new = True
                    amortized += charges[slot]
                    continue
                access_dollars, access_seconds, access_bytes = surcharge
                dollars += access_dollars
                seconds += access_seconds
                shipped += access_bytes
                has_remote = True
            if not has_remote:
                continue
            cpu_dollars = estimates.value("cpu_dollars", row_index, column)
            io_dollars = estimates.value("io_dollars", row_index, column)
            network_dollars = estimates.value(
                "network_dollars", row_index, column
            )
            execution_dollars = (
                (cpu_dollars + io_dollars) + (network_dollars + dollars)
            )
            context.execution_dollars[row_index] = execution_dollars
            context.amortized[row_index] = amortized
            context.prices[row_index] = execution_dollars + amortized
            context.times[row_index] = context.times[row_index] + seconds
            context.existing[row_index] = not has_local_new

    # -- owned-only regret with barrier forwarding -----------------------------

    def _distribute_regret(self, query: Query,
                           result: NegotiationResult) -> None:
        """Record regret locally for owned structures, tally it for foreign.

        Remotely advertised structures earn no regret at all (they exist;
        nothing needs building). When every missing structure is locally
        owned — always the case with one partition — this is exactly the
        base engine's behaviour, call for call.
        """
        cache = self.partitioned_cache
        built_keys = cache.built_keys
        for plan, regret in result.regrets:
            missing = tuple(
                structure for structure in plan.plan.new_structures(built_keys)
                if cache.remote_entry(structure.key) is None
            )
            if not missing:
                continue
            owned = tuple(structure for structure in missing
                          if cache.owns(structure.key))
            if len(owned) == len(missing):
                self._regret.distribute(missing, regret,
                                        divide=self.config.divide_regret)
                if self.tenants is not None:
                    self.tenants.record_regret(
                        query.tenant_id, missing, regret,
                        divide=self.config.divide_regret)
                continue
            share = (regret / len(missing) if self.config.divide_regret
                     else regret)
            for structure in owned:
                self._regret.distribute((structure,), share)
            if self.tenants is not None:
                # The tenant's own mirror records the full regret where
                # the query ran (every partition holds the registry),
                # exactly like the base engine — only the provider-side
                # share of foreign structures travels at the barrier.
                self.tenants.record_regret(query.tenant_id, missing, regret,
                                           divide=self.config.divide_regret)
            for structure in missing:
                if cache.owns(structure.key):
                    continue
                previous = self._foreign_regret.get(structure.key)
                amount = (previous[1] if previous is not None else 0.0) + share
                self._foreign_regret[structure.key] = (structure, amount)

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
            self._forwarded_regret_received += amount

    @property
    def forwarded_regret_received(self) -> float:
        """Total regret absorbed from other partitions so far."""
        return self._forwarded_regret_received

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

    # -- owned-only investment -------------------------------------------------

    def _available_column_keys(self) -> FrozenSet[str]:
        """Local cached columns plus columns advertised by the directory.

        A build may read a remote column over the interconnect instead of
        re-extracting it from the back-end, so remote columns count as
        available for build-cost estimation and index construction.
        """
        return (super()._available_column_keys()
                | self.partitioned_cache.remote_column_keys)

    def _build_structure(self, structure: CacheStructure, query_id: int,
                         now: float) -> List[StructureBuild]:
        cache = self.partitioned_cache
        if not cache.owns(structure.key):
            return []
        if isinstance(structure, CachedIndex):
            available = self._available_column_keys()
            for column in structure.required_columns():
                if column.key in available:
                    continue
                if not cache.owns(column.key):
                    # The column is foreign-owned and not advertised:
                    # neither buildable here nor readable remotely, so
                    # the index cannot be materialised on this partition.
                    return []
        return super()._build_structure(structure, query_id, now)

    # -- remote accounting -----------------------------------------------------

    def _settle_chosen_plan(self, query: Query, result: NegotiationResult,
                            now: float) -> float:
        recovered = super()._settle_chosen_plan(query, result, now)
        cache = self.partitioned_cache
        accesses = 0
        for structure in result.chosen.plan.structures:
            entry = cache.remote_entry(structure.key)
            if entry is None:
                # A locally resident structure defends its placement at
                # the surcharge this partition avoids by owning it. Only
                # adaptive runs pay for the tally — under hash placement
                # nothing ever drains it.
                if self._record_bids and cache.contains(structure.key):
                    size = cache.entry(structure.key).size_bytes
                    avoided, _, _ = self._remote.surcharge(size)
                    self._record_placement_bid(structure.key, avoided)
                continue
            accesses += 1
            dollars, _, shipped = self._remote.surcharge(entry.size_bytes)
            self._remote_dollars += dollars
            self._remote_bytes += shipped
            if self._record_bids:
                self._record_placement_bid(structure.key, dollars)
        if accesses:
            self._remote_hits += 1
            self._remote_structure_accesses += accesses
        return recovered

    def _record_placement_bid(self, key: str, dollars: float) -> None:
        """Tally one access's placement benefit (observation only)."""
        if dollars > 0:
            self._placement_bids[key] = (
                self._placement_bids.get(key, 0.0) + dollars)
