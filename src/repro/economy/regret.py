"""The per-structure regret array ``regretS`` (Section IV-C, Definition 2).

The regret of a non-chosen plan is distributed over the structures that plan
would have used but that are not built yet; the accumulated value per
structure "shows the overall regret of the cloud for not employing it in
executed query plans". The pool of tracked structures is garbage collected
with an LRU policy, as Section IV-B prescribes, so it stays proportional to
the recent workload rather than growing without bound.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.cache.lru import LruTracker
from repro.errors import EconomyError
from repro.structures.base import CacheStructure


class RegretTracker:
    """Accumulates regret per structure key and supports LRU garbage collection.

    Args:
        pool_capacity: LRU bound on the number of tracked structures
            (``None`` disables garbage collection).

    Example:
        >>> from repro.structures.cached_column import CachedColumn
        >>> tracker = RegretTracker(pool_capacity=8)
        >>> column = CachedColumn("lineitem", "l_quantity")
        >>> tracker.add(column, 2.5)
        >>> tracker.add(column, 1.5)
        >>> tracker.value(column.key)
        4.0
        >>> tracker.reset(column.key)
        4.0
        >>> tracker.value(column.key)
        0.0
    """

    def __init__(self, pool_capacity: Optional[int] = 512) -> None:
        self._values: Dict[str, float] = {}
        self._structures: Dict[str, CacheStructure] = {}
        self._lru: LruTracker[str] = LruTracker(pool_capacity)

    # -- recording ------------------------------------------------------------

    def add(self, structure: CacheStructure, amount: float) -> None:
        """Accumulate ``amount`` of regret on ``structure``.

        Negative amounts are rejected; zero amounts still refresh the
        structure's recency in the pool (it was relevant to a recent query).

        Args:
            structure: the missing structure the regret belongs to.
            amount: the (non-negative) regret to add.
        """
        self.distribute((structure,), amount, divide=False)

    def distribute(self, structures: Iterable[CacheStructure], amount: float,
                   divide: bool = True) -> None:
        """Distribute a plan's regret over the structures it would have used.

        Args:
            structures: the plan's missing structures.
            amount: the plan's regret (Eq. 1 or Eq. 2).
            divide: if True (default) the amount is split equally, which is
                how we read "distributed uniformly to every physical
                structure used by the plan"; if False every structure is
                charged the full amount.

        Example:
            >>> from repro.structures.cached_column import CachedColumn
            >>> tracker = RegretTracker()
            >>> columns = [CachedColumn("orders", "o_custkey"),
            ...            CachedColumn("orders", "o_totalprice")]
            >>> tracker.distribute(columns, 6.0, divide=True)
            >>> [tracker.value(column.key) for column in columns]
            [3.0, 3.0]
        """
        if amount < 0:
            raise EconomyError(f"regret must be non-negative, got {amount}")
        structure_list = list(structures)
        if not structure_list:
            return
        share = amount / len(structure_list) if divide else amount
        values = self._values
        structures_by_key = self._structures
        touch = self._lru.touch
        for structure in structure_list:
            key = structure.key
            structures_by_key[key] = structure
            values[key] = values.get(key, 0.0) + share
            for evicted_key in touch(key):
                self._forget(evicted_key)

    # -- queries ----------------------------------------------------------------

    def value(self, key: str) -> float:
        """Accumulated regret of a structure (0 if never seen)."""
        return self._values.get(key, 0.0)

    def structure(self, key: str) -> Optional[CacheStructure]:
        """The structure object behind a key, if it is still in the pool."""
        return self._structures.get(key)

    def total(self) -> float:
        """Sum of all accumulated regret."""
        return sum(self._values.values())

    def tracked_keys(self) -> List[str]:
        """Keys currently in the pool, least recently touched first."""
        return self._lru.in_lru_order()

    def items(self):
        """(key, regret) pairs in insertion order, unsorted."""
        return self._values.items()

    def ranked(self) -> List[Tuple[str, float]]:
        """(key, regret) pairs sorted by descending regret."""
        return sorted(self._values.items(), key=lambda item: -item[1])

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, key: str) -> bool:
        return key in self._values

    # -- lifecycle ----------------------------------------------------------------

    def reset(self, key: str) -> float:
        """Zero a structure's regret (called when the cloud builds it).

        Returns the regret that was accumulated.
        """
        value = self._values.pop(key, 0.0)
        self._structures.pop(key, None)
        self._lru.discard(key)
        return value

    def _forget(self, key: str) -> None:
        """Drop a structure evicted from the LRU pool."""
        self._values.pop(key, None)
        self._structures.pop(key, None)
