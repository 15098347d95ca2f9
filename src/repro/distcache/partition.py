"""Deterministic structure → partition and query → partition assignment.

Two mappings define a partitioned run, both built on the stable content
hash of :mod:`repro.partitioning` (the helper shared with tenant
sharding, so the two layers cannot drift):

* :class:`StructurePartitioner` — which cache partition **owns** a
  structure key. Only the owner may build, hold, bill, or evict the
  structure; every other partition sees it through the
  :class:`~repro.distcache.directory.CrossShardDirectory` and pays a
  remote-access surcharge to use it. Ownership disjointness is what makes
  the per-partition caches and provider sub-accounts mergeable exactly.
  An **ownership-override table** is consulted before the hash fallback:
  adaptive placement (:mod:`repro.distcache.placement`) hands structures
  to the partition deriving the most priced benefit from them, and the
  override table is how those handoffs become the new ownership truth —
  every consumer (directory checks, admission guards, regret routing)
  reads ownership through :meth:`StructurePartitioner.partition_of`, so
  an override takes effect everywhere at once.
* :class:`QueryRouter` — which partition **serves** a query. Routing is
  by template affinity (stable hash of the template name): queries
  instantiated from one template touch the same columns and indexes, so
  sending a template always to the same partition maximises the chance
  that the structures it wants are owned locally. Each query is
  planned, priced, and negotiated by exactly one partition, where the
  replicated-replay sharding mode re-runs every query on every worker.

Example:
    >>> partitioner = StructurePartitioner(partition_count=4)
    >>> 0 <= partitioner.partition_of("column:lineitem.l_quantity") < 4
    True
    >>> partitioner.partition_of("x") == StructurePartitioner(4).partition_of("x")
    True
    >>> StructurePartitioner(1).partition_of("anything")
    0
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.errors import DistCacheError
from repro.partitioning import partition_index
from repro.workload.query import Query


@dataclass(frozen=True)
class StructurePartitioner:
    """Maps structure keys onto ``partition_count`` partitions by stable hash.

    Frozen (hashable, picklable) so it can ride inside a partition task to
    a worker process and be reconstructed bit-for-bit on the other side.

    Attributes:
        partition_count: number of cache partitions; any count >= 1 is valid.
        overrides: the ownership-override table — ``(key, partition)``
            pairs consulted before the hash fallback, normalised to
            key-sorted order with no entry that merely restates the hash
            owner (so two partitioners with the same effective mapping
            compare and hash equal). Empty by default: pure hash
            placement, byte-identical to the pre-placement behaviour.

    Example:
        >>> base = StructurePartitioner(partition_count=2)
        >>> key = "column:lineitem.l_quantity"
        >>> moved = base.with_overrides({key: 1 - base.partition_of(key)})
        >>> moved.partition_of(key) == 1 - base.partition_of(key)
        True
        >>> moved.hash_owner_of(key) == base.partition_of(key)
        True
        >>> moved.with_overrides({key: base.partition_of(key)}).overrides
        ()
    """

    partition_count: int
    overrides: Tuple[Tuple[str, int], ...] = ()
    _override_map: Dict[str, int] = field(
        init=False, repr=False, compare=False, default=None)  # type: ignore[assignment]
    # key -> owner, filled on first lookup: pricing asks about the same
    # few structure keys on every query, and a BLAKE2b digest per ask
    # would dominate the lookup.
    _owners: Dict[str, int] = field(
        init=False, repr=False, compare=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.partition_count < 1:
            raise DistCacheError(
                f"partition_count must be >= 1, got {self.partition_count}"
            )
        seen: Dict[str, int] = {}
        for key, partition in self.overrides:
            if not key:
                raise DistCacheError("override key must not be empty")
            if key in seen:
                raise DistCacheError(
                    f"duplicate ownership override for {key!r}")
            if not 0 <= partition < self.partition_count:
                raise DistCacheError(
                    f"override for {key!r} targets partition {partition}, "
                    f"outside [0, {self.partition_count})"
                )
            seen[key] = partition
        canonical = tuple(sorted(
            (key, partition) for key, partition in seen.items()
            if partition_index(key, self.partition_count) != partition
        ))
        object.__setattr__(self, "overrides", canonical)
        object.__setattr__(self, "_override_map", dict(canonical))
        object.__setattr__(self, "_owners", {})

    def partition_of(self, key: str) -> int:
        """The partition that owns structure ``key``: the override table
        first, the stable hash as fallback (memoized per key)."""
        owner = self._owners.get(key)
        if owner is None:
            if not key:
                raise DistCacheError("structure key must not be empty")
            owner = self._override_map.get(key)
            if owner is None:
                owner = partition_index(key, self.partition_count)
            self._owners[key] = owner
        return owner

    def hash_owner_of(self, key: str) -> int:
        """The pure hash owner of ``key``, ignoring any override."""
        if not key:
            raise DistCacheError("structure key must not be empty")
        return partition_index(key, self.partition_count)

    def with_overrides(self, handoffs: Mapping[str, int]
                       ) -> "StructurePartitioner":
        """A new partitioner with ``handoffs`` merged over the current table.

        A handoff that restores a key to its hash owner *removes* the
        key's entry (the canonical form keeps no redundant overrides), so
        repeated handoffs cannot grow the table without bound.
        """
        merged = dict(self._override_map)
        merged.update(handoffs)
        return StructurePartitioner(
            partition_count=self.partition_count,
            overrides=tuple(merged.items()),
        )

    def owns(self, partition: int, key: str) -> bool:
        """Whether ``partition`` is the owner of structure ``key``."""
        self.validate_index(partition)
        return self.partition_of(key) == partition

    def validate_index(self, partition: int) -> int:
        """Check a partition index is in range; returns it for chaining."""
        if not 0 <= partition < self.partition_count:
            raise DistCacheError(
                f"partition index must be in [0, {self.partition_count}), "
                f"got {partition}"
            )
        return partition


@dataclass(frozen=True)
class QueryRouter:
    """Routes queries to partitions by stable hash of their template name.

    Attributes:
        partition_count: number of cache partitions; must match the
            :class:`StructurePartitioner` of the run.

    Example:
        >>> from repro.workload.query import Query
        >>> query = Query(query_id=7, template_name="q1_pricing_summary",
        ...               table_name="lineitem", predicates=(),
        ...               projection_columns=("l_quantity",))
        >>> router = QueryRouter(partition_count=4)
        >>> router.partition_of(query) == router.partition_of(query)
        True
        >>> QueryRouter(partition_count=1).partition_of(query)
        0
    """

    partition_count: int
    # template name -> partition, filled on first lookup.
    _partitions: Dict[str, int] = field(
        init=False, repr=False, compare=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.partition_count < 1:
            raise DistCacheError(
                f"partition_count must be >= 1, got {self.partition_count}"
            )
        object.__setattr__(self, "_partitions", {})

    def partition_of(self, query: Query) -> int:
        """The partition that serves ``query`` (template-affinity routing,
        memoized per template name)."""
        name = query.template_name
        partition = self._partitions.get(name)
        if partition is None:
            if not name:
                raise DistCacheError("query template_name must not be empty")
            partition = partition_index(name, self.partition_count)
            self._partitions[name] = partition
        return partition

    def split(self, queries: Sequence[Query]) -> List[List[Query]]:
        """Partition queries into per-partition streams (order preserved).

        Example:
            >>> from repro.workload.query import Query
            >>> queries = [Query(query_id=i, template_name=f"t{i % 3}",
            ...                  table_name="lineitem", predicates=(),
            ...                  projection_columns=("l_quantity",))
            ...            for i in range(6)]
            >>> parts = QueryRouter(partition_count=2).split(queries)
            >>> sorted(q.query_id for part in parts for q in part)
            [0, 1, 2, 3, 4, 5]
        """
        parts: List[List[Query]] = [[] for _ in range(self.partition_count)]
        for query in queries:
            parts[self.partition_of(query)].append(query)
        return parts
