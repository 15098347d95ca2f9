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
from typing import (Callable, Dict, FrozenSet, List, Optional, Sequence,
                    Tuple)

from repro.costmodel.amortization import AmortizationPolicy
from repro.costmodel.build import StructureCostModel
from repro.economy.account import ConservationFolds
from repro.economy.engine import (EconomyConfig, EconomyEngine,
                                  RegretPair, StructureBuild)
from repro.economy.negotiation import NegotiationResult
from repro.economy.pricing import PricedPlan
from repro.economy.tenancy import TenantRegistry
from repro.distcache.directory import CrossShardDirectory
from repro.distcache.manager import PartitionedCacheManager
from repro.errors import DistCacheError
from repro.planner.enumerator import PlanEnumerator
from repro.structures.base import CacheStructure
from repro.structures.cached_index import CachedIndex
from repro.workload.query import Query

_BYTES_PER_GB = 1024.0 ** 3

#: One remote access as ``(dollars, seconds, shipped_bytes)``.
Surcharge = Tuple[float, float, float]


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


class RemoteOverlay:
    """Remote-access pricing of one plan table, for one cache version and
    one set of advertised directory entries.

    A structure another partition advertises needs no build: a row that
    uses it pays the access surcharge in its execution figures instead of
    amortising the structure. Between two cache-content changes or
    directory publications that is a constant of the row, so it is
    worked out once here: each surcharged row's summed dollars, seconds
    and shipped bytes, whether each row counts as existing (it can run
    without building anything), and the non-remote slots its amortisation
    sums. A query then only adds the memoized surcharge to each
    surcharged row, which is exact because cache-plan rows carry
    ``network_dollars == 0.0``: ``(cpu + io) + (0.0 + dollars)`` is
    ``(cpu + io) + dollars``, bit for bit.

    The overlay reads the pricing state's ``cached_flags`` and follows its
    charges: the amortisation totals of surcharged rows are re-summed,
    in plan order, whenever the state re-sums its own.
    """

    __slots__ = ("state", "existing", "surcharges", "_summed_slots",
                 "_amortized", "_resums")

    def __init__(self, state,
                 surcharge_of: Callable[[str], Optional[Surcharge]]) -> None:
        table = state.table
        cached_flags = state.cached_flags
        slot_surcharges = [
            None if cached else surcharge_of(structure.key)
            for structure, cached in zip(table.unique_structures,
                                         cached_flags)]
        self.state = state
        self.existing = list(state.existing)
        # Row index -> its summed (dollars, seconds, shipped_bytes), for
        # every row with a remote structure, in row order.
        self.surcharges: Dict[int, Surcharge] = {}
        self._summed_slots: List[Tuple[int, Tuple[int, ...]]] = []
        for row_index, row in enumerate(table.rows):
            dollars = seconds = shipped = 0.0
            summed = []
            has_remote = has_local_new = False
            for slot in row.structure_indices:
                surcharge = slot_surcharges[slot]
                if surcharge is None:
                    summed.append(slot)
                    has_local_new = has_local_new or not cached_flags[slot]
                    continue
                access_dollars, access_seconds, access_bytes = surcharge
                dollars += access_dollars
                seconds += access_seconds
                shipped += access_bytes
                has_remote = True
            if not has_remote:
                continue
            # The surcharge lands on the row's network dollars, which a
            # cache plan leaves at zero; anything else would make the
            # memoized add inexact.
            assert row.plan.execution.network_dollars == 0.0, row.plan.label
            self.surcharges[row_index] = (dollars, seconds, shipped)
            self._summed_slots.append((row_index, tuple(summed)))
            self.existing[row_index] = not has_local_new
        self._amortized: List[float] = []
        self._resums = -1

    def amortized(self) -> List[float]:
        """Every row's amortisation total, remote structures left out."""
        state = self.state
        if self._resums != state.resums:
            totals = list(state.row_totals)
            charges = state.charges
            for row_index, slots in self._summed_slots:
                total = 0.0
                for slot in slots:
                    total += charges[slot]
                totals[row_index] = total
            self._amortized = totals
            self._resums = state.resums
        return self._amortized


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
        self._remote = RemoteAccessModel()
        self._record_bids = record_placement_bids
        self._remote_hits = 0
        self._remote_structure_accesses = 0
        self._remote_bytes = 0.0
        self._remote_dollars = 0.0
        self._foreign_regret: Dict[str, Tuple[CacheStructure, float]] = {}
        self._forwarded_regret_received = 0.0
        self._placement_bids: Dict[str, float] = {}
        # _remote_surcharge's memo and the cache version it was filled
        # under, and one RemoteOverlay per template name (see
        # _remote_overlay). Both are dropped when the installed directory
        # advertises other entries than _memo_directory.
        self._surcharges: Dict[str, Optional[Surcharge]] = {}
        self._surcharge_version = -1
        self._overlays: Dict[str, RemoteOverlay] = {}
        self._memo_directory: Optional[CrossShardDirectory] = None
        self._barrier_folds = ConservationFolds()

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
    def barrier_folds(self) -> ConservationFolds:
        """The conservation folds the barrier audits resume, riding with
        the partition's state from epoch to epoch."""
        return self._barrier_folds

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

    def _remote_surcharge(self, key: str) -> Optional[Surcharge]:
        """``(dollars, seconds, shipped_bytes)`` of one access to ``key``
        on another partition, or ``None`` when it is not remote here.

        Whether a key is remote changes only with the local cache's
        contents or the advertised entries, so answers are memoized per
        cache version and entry set. An ownership handoff moves entries
        without a version bump, but the barrier that applies it always
        installs a directory advertising the move before anything is
        priced.
        """
        cache = self.partitioned_cache
        self._check_directory()
        if self._surcharge_version != cache.version:
            self._surcharges = {}
            self._surcharge_version = cache.version
        surcharges = self._surcharges
        try:
            return surcharges[key]
        except KeyError:
            entry = cache.remote_entry(key)
            surcharge = (None if entry is None
                         else self._remote.surcharge(entry.size_bytes))
            surcharges[key] = surcharge
            return surcharge

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
        remote = []
        local_new = []
        for structure in priced.new_structures:
            surcharge = self._remote_surcharge(structure.key)
            if surcharge is None:
                local_new.append(structure)
            else:
                remote.append((structure, surcharge))
        if not remote:
            return priced

        dollars = seconds = shipped = 0.0
        for _, (access_dollars, access_seconds, access_bytes) in remote:
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
        remote_keys = {structure.key for structure, _ in remote}
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

    def _check_directory(self) -> None:
        """Drop the remote-pricing memos if the installed directory
        advertises other entries than the one they were filled under.

        The runner installs a new directory object at every barrier, but
        most barriers advertise the entries of the last one, and equal
        entries price every remote access alike.
        """
        directory = self.partitioned_cache.directory
        if directory is self._memo_directory:
            return
        if (self._memo_directory is None
                or not directory.same_entries(self._memo_directory)):
            self._surcharges = {}
            self._overlays = {}
        self._memo_directory = directory

    def _remote_overlay(self, state) -> Optional[RemoteOverlay]:
        """The batched mirror of :meth:`_apply_remote`: the plan table's
        :class:`RemoteOverlay` for this pricing state and the advertised
        entries, rebuilt only when either changes; ``None`` when no row
        has a remote structure."""
        if len(self.partitioned_cache.directory) == 0:
            return None
        self._check_directory()
        name = state.table.template_name
        overlay = self._overlays.get(name)
        if overlay is None or overlay.state is not state:
            overlay = RemoteOverlay(state, self._remote_surcharge)
            self._overlays[name] = overlay
        return overlay if overlay.surcharges else None

    # -- owned-only regret with barrier forwarding -----------------------------

    def _distribute_regret(self, query: Query,
                           regrets: Sequence[RegretPair]) -> None:
        """Record regret locally for owned structures, tally it for foreign.

        Remotely advertised structures earn no regret at all (they exist;
        nothing needs building). When every missing structure is locally
        owned — always the case with one partition — this books exactly
        what the base engine books.
        """
        cache = self.partitioned_cache
        divide = self.config.divide_regret
        remote = self._remote_surcharge
        for missing, regret in regrets:
            missing = tuple(structure for structure in missing
                            if remote(structure.key) is None)
            if not missing:
                continue
            # distribute()'s own split, so an all-owned plan books exactly
            # what one distribute(missing, regret, divide) call books.
            share = regret / len(missing) if divide else regret
            owned = [structure for structure in missing
                     if cache.owns(structure.key)]
            self._regret.distribute(owned, share, divide=False)
            if self.tenants is not None:
                # The tenant's own mirror records the full regret where
                # the query ran (every partition holds the registry),
                # exactly like the base engine — only the provider-side
                # share of foreign structures travels at the barrier.
                self.tenants.record_regret(query.tenant_id, missing, regret,
                                           divide=divide)
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
            surcharge = self._remote_surcharge(structure.key)
            if surcharge is None:
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
            dollars, _, shipped = surcharge
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
