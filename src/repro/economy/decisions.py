"""The paper's per-query rules as pure functions over plain rows.

Each function reads prices, times, existing flags and structures (on a
partitioned cache also who owns a key and what other partitions
advertise) and returns a small immutable record. Nothing here touches a
cache, an account or a regret tracker:
:class:`~repro.economy.engine.EconomyEngine` applies the records, on
both planning paths and in every cell. A plain cache owns every key and
sees no remote entry, so there those inputs never change an answer.
:func:`~repro.economy.negotiation.negotiate` and
:meth:`~repro.economy.investment.InvestmentPolicy.candidates` have this
shape too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (AbstractSet, Callable, NamedTuple, Optional, Sequence,
                    Tuple)

from repro.economy.pricing import PricedPlan
from repro.errors import DistCacheError
from repro.structures.base import CacheStructure
from repro.structures.cached_index import CachedIndex

_BYTES_PER_GB = 1024.0 ** 3

#: One remote access, or a sum of them, as ``(dollars, seconds, shipped_bytes)``.
Surcharge = Tuple[float, float, float]


def _cheapest_existing(prices: Sequence[float],
                       existing: Sequence[bool]) -> Optional[int]:
    """The cheapest existing row (the first of equal prices), or ``None``."""
    cheapest = None
    for row, is_existing in enumerate(existing):
        if is_existing and (cheapest is None
                            or prices[row] < prices[cheapest]):
            cheapest = row
    return cheapest


def offer_rows(selected: Sequence[int], prices: Sequence[float],
               existing: Sequence[bool]) -> Tuple[int, ...]:
    """The rows negotiation is offered: the skyline selection, plus the
    cheapest existing row when the skyline (which weighs price and time
    only) kept nothing executable.

    Example:
        >>> offer_rows([2], [1.0, 2.0, 0.5], [True, True, False])
        (2, 0)
        >>> offer_rows([0, 2], [1.0, 2.0, 0.5], [True, True, False])
        (0, 2)
    """
    if any(existing[row] for row in selected):
        return tuple(selected)
    cheapest = _cheapest_existing(prices, existing)
    if cheapest is None:
        return tuple(selected)
    return (*selected, cheapest)


def budget_reference(prices: Sequence[float], existing: Sequence[bool],
                     backend_row: Optional[int]) -> int:
    """The row whose price and time the user's budget is drawn against:
    the back-end plan, else the cheapest existing row, else row 0.

    Example:
        >>> budget_reference([3.0, 1.0], [True, True], backend_row=0)
        0
        >>> budget_reference([3.0, 1.0], [True, True], backend_row=None)
        1
        >>> budget_reference([3.0, 1.0], [False, False], backend_row=None)
        0
    """
    if backend_row is not None:
        return backend_row
    cheapest = _cheapest_existing(prices, existing)
    return 0 if cheapest is None else cheapest


class RegretAttribution(NamedTuple):
    """Where one regretted plan's regret (Eqs. 1-2) lands.

    Attributes:
        missing: the plan's missing structures without the remote ones;
            the issuing tenant's own mirror records the full regret over
            them.
        share: the provider-side regret each of them earns.
        owned: those this cache may build; their shares are booked here.
        foreign: those another partition owns; their shares are
            forwarded to it.
    """

    missing: Tuple[CacheStructure, ...]
    share: float
    owned: Tuple[CacheStructure, ...]
    foreign: Tuple[CacheStructure, ...]


def attribute_regret(missing: Tuple[CacheStructure, ...], regret: float,
                     divide: bool, owns: Callable[[str], bool],
                     remote_entry: Callable[[str], object]
                     ) -> Optional[RegretAttribution]:
    """Attribute one regretted plan's regret to its missing structures.

    Remote structures (another partition advertises them:
    ``remote_entry(key)`` is not ``None``) need no build and earn nothing.
    The rest share the regret: equally with ``divide``, else each earns
    it in full. ``owns`` tells which this cache may build. ``None`` when
    no structure is left.

    Example:
        >>> from repro.structures.cached_column import CachedColumn
        >>> a, b = CachedColumn("orders", "a"), CachedColumn("orders", "b")
        >>> owned, nowhere = {a.key}, {}.get
        >>> shares = attribute_regret((a, b), 6.0, True, owned.__contains__,
        ...                           nowhere)
        >>> shares.share, [s.key for s in shares.owned], [s.key for s in shares.foreign]
        (3.0, ['column:orders.a'], ['column:orders.b'])
        >>> attribute_regret((a,), 6.0, False, owned.__contains__,
        ...                  {a.key: "partition 1"}.get) is None
        True
    """
    kept, owned, foreign = [], [], []
    for structure in missing:
        key = structure.key
        if remote_entry(key) is None:
            kept.append(structure)
            (owned if owns(key) else foreign).append(structure)
    if not kept:
        return None
    share = regret / len(kept) if divide else regret
    return RegretAttribution(tuple(kept), share, tuple(owned), tuple(foreign))


def build_pieces(structure: CacheStructure, available: AbstractSet[str],
                 owns: Callable[[str], bool]) -> Tuple[CacheStructure, ...]:
    """What building ``structure`` here materialises, in build order.

    An index's key columns that are not ``available`` (cached, or readable
    from another partition) are built before it. Nothing is built when
    this cache does not own the structure, or a needed column is
    foreign-owned and not advertised.

    Example:
        >>> from repro.structures.cached_column import CachedColumn
        >>> index = CachedIndex("lineitem", ("l_tax", "l_discount"))
        >>> everything = lambda key: True
        >>> [p.key for p in build_pieces(index, {"column:lineitem.l_tax"}, everything)]
        ['column:lineitem.l_discount', 'index:lineitem(l_tax,l_discount)']
        >>> build_pieces(index, set(), lambda key: key.startswith("index:"))
        ()
        >>> column = CachedColumn("lineitem", "l_tax")
        >>> build_pieces(column, set(), everything) == (column,)
        True
    """
    if not owns(structure.key):
        return ()
    if not isinstance(structure, CachedIndex):
        return (structure,)
    pieces = []
    for column in structure.required_columns():
        if column.key in available:
            continue
        if not owns(column.key):
            return ()
        pieces.append(column)
    return (*pieces, structure)


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

    def surcharge(self, size_bytes: int) -> Surcharge:
        """``(dollars, seconds, shipped_bytes)`` of one access to a
        remote structure of ``size_bytes``."""
        shipped = self.transfer_fraction * size_bytes
        gigabytes = shipped / _BYTES_PER_GB
        dollars = self.dollars_per_gb * gigabytes
        seconds = self.rtt_s + self.seconds_per_gb * gigabytes
        return dollars, seconds, shipped


def remote_terms(missing: Sequence[CacheStructure],
                 surcharge_of: Callable[[str], Optional[Surcharge]]
                 ) -> Optional[Surcharge]:
    """The summed surcharges, in plan order, of the missing structures
    another partition advertises (``surcharge_of(key)`` is not ``None``),
    or ``None`` when none is.

    Example:
        >>> from repro.structures.cached_column import CachedColumn
        >>> a, b = CachedColumn("orders", "a"), CachedColumn("orders", "b")
        >>> remote_terms((a, b), {a.key: (0.5, 0.25, 8.0)}.get)
        (0.5, 0.25, 8.0)
        >>> remote_terms((b,), {a.key: (0.5, 0.25, 8.0)}.get) is None
        True
    """
    dollars = seconds = shipped = 0.0
    remote = False
    for structure in missing:
        surcharge = surcharge_of(structure.key)
        if surcharge is not None:
            remote = True
            dollars += surcharge[0]
            seconds += surcharge[1]
            shipped += surcharge[2]
    return (dollars, seconds, shipped) if remote else None


def with_surcharge(execution, surcharge: Surcharge):
    """An execution estimate plus summed remote accesses: their dollars
    land on the network leg, next to the bytes they ship."""
    dollars, seconds, shipped = surcharge
    return replace(
        execution,
        network_bytes=execution.network_bytes + shipped,
        network_dollars=execution.network_dollars + dollars,
        response_time_s=execution.response_time_s + seconds,
    )


def remote_priced(priced: PricedPlan,
                  surcharge_of: Callable[[str], Optional[Surcharge]]
                  ) -> PricedPlan:
    """Re-price one plan with what other partitions advertise: each
    advertised missing structure is not amortised, and its surcharge joins
    the execution estimate. A plan with no remote structure comes back as
    it is.

    Example:
        >>> from repro.costmodel.execution import ExecutionEstimate
        >>> from repro.planner.plan import PlanKind, QueryPlan
        >>> from repro.structures.cached_column import CachedColumn
        >>> from repro.workload.query import Query
        >>> column = CachedColumn("lineitem", "l_tax")
        >>> query = Query(query_id=0, template_name="t", table_name="lineitem",
        ...               predicates=(), projection_columns=("l_tax",))
        >>> estimate = ExecutionEstimate(
        ...     cost_units=1.0, io_operations=0.0, cpu_seconds=1.0,
        ...     network_bytes=0.0, response_time_s=3.0, cpu_dollars=2.0,
        ...     io_dollars=0.0, network_dollars=0.0)
        >>> plan = PricedPlan(
        ...     plan=QueryPlan(query=query, kind=PlanKind.CACHE_COLUMN_SCAN,
        ...                    execution=estimate, structures=(column,)),
        ...     execution_dollars=2.0, amortized_dollars=4.0,
        ...     maintenance_dollars=0.0, new_structures=(column,),
        ...     amortized_by_structure={column.key: 4.0})
        >>> remote = remote_priced(plan, {column.key: (0.5, 0.25, 8.0)}.get)
        >>> remote.price, remote.response_time_s, remote.is_existing
        (2.5, 3.25, True)
    """
    surcharge = remote_terms(priced.new_structures, surcharge_of)
    if surcharge is None:
        return priced
    plan = replace(priced.plan, execution=with_surcharge(
        priced.plan.execution, surcharge))
    remote_keys = {structure.key for structure in priced.new_structures
                   if surcharge_of(structure.key) is not None}
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
        new_structures=tuple(structure
                             for structure in priced.new_structures
                             if structure.key not in remote_keys),
        amortized_by_structure=amortized_by_structure,
    )
