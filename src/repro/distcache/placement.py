"""Demand-driven structure placement: who *should* own each structure.

Hash placement (PR 4) pins every structure to its hash owner forever: a
partition whose tenants repeatedly pay the remote-access surcharge for a
hot foreign structure can never claim it. This module extends the source
paper's economy framing — cache residency priced by measured benefit —
to *placement*: the partition that derives the most priced benefit from
a structure should own it.

During an epoch every :class:`~repro.distcache.engine.PartitionedEconomyEngine`
tallies, per structure its chosen plans touched, the dollars the
:class:`~repro.economy.decisions.RemoteAccessModel` prices that use at:

* a **remote** access bids the surcharge actually paid — what the
  partition would save per epoch by owning the structure;
* a **local** access bids the surcharge the owner *would* pay were the
  structure foreign — the incumbent's defence, valued through the same
  model so the two sides are commensurable.

At each settlement barrier the drained bids feed a
:class:`PlacementPolicy`, which proposes deterministic ownership
handoffs: the highest bidder wins, ties break toward the lowest
partition index, and a **hysteresis threshold** demands the challenger
beat the incumbent by a margin — without it a structure two partitions
use equally would ping-pong at every barrier, paying the handoff's
directory churn for nothing. Decisions depend only on the *multiset* of
recorded bids (sums use :func:`math.fsum`, which is exact and therefore
permutation-invariant), pinned by a hypothesis property in
``tests/test_distcache_placement.py``.

The policy only proposes; the runner applies. An applied handoff updates
the :class:`~repro.distcache.partition.StructurePartitioner` override
table and transfers the structure's residency state and in-flight regret
to the new owner — no money moves, so the bitwise provider-sub-account
reconciliation is untouched (see ``docs/distcache.md``).

Example:
    >>> policy = PlacementPolicy(partition_count=2, handoff_threshold=0.5)
    >>> policy.record("column:a", partition=1, benefit=2.0)
    >>> policy.record("column:a", partition=0, benefit=1.0)
    >>> [(d.key, d.from_partition, d.to_partition)
    ...  for d in policy.propose({"column:a": 0})]
    [('column:a', 0, 1)]
    >>> policy.epochs_observed
    1
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping

from repro.errors import DistCacheError


@dataclass(frozen=True)
class HandoffDecision:
    """One proposed ownership handoff and the bids that justified it."""

    key: str
    from_partition: int
    to_partition: int
    challenger_benefit: float
    incumbent_benefit: float

    @property
    def margin(self) -> float:
        """How much the challenger outbid the incumbent by."""
        return self.challenger_benefit - self.incumbent_benefit


@dataclass(frozen=True)
class HandoffRecord:
    """One handoff the runner actually applied, for the audit trail."""

    epoch: int
    key: str
    from_partition: int
    to_partition: int
    margin: float


class PlacementPolicy:
    """Tallies per-partition benefit per structure; proposes handoffs.

    Args:
        partition_count: partitions in the run; bids outside
            ``[0, partition_count)`` are rejected.
        handoff_threshold: the hysteresis margin (dollars per epoch): a
            challenger must exceed the incumbent's benefit by *more* than
            this to win the structure. ``0.0`` means any strictly
            positive margin triggers a handoff; equal bids never move a
            structure regardless (strict comparison), so placement is
            stable under symmetric demand.

    The tally is epoch-scoped: :meth:`propose` drains it, so each
    barrier's decisions reflect only the demand observed since the last
    one — stale demand cannot keep pulling a structure around.
    """

    def __init__(self, partition_count: int,
                 handoff_threshold: float = 0.0) -> None:
        if partition_count < 1:
            raise DistCacheError(
                f"partition_count must be >= 1, got {partition_count}")
        if not handoff_threshold >= 0:  # `not >=` also rejects NaN
            raise DistCacheError(
                f"handoff_threshold must be >= 0, got {handoff_threshold}")
        self._partition_count = partition_count
        self._threshold = handoff_threshold
        self._bids: Dict[str, Dict[int, List[float]]] = {}
        self._epochs_observed = 0

    # -- introspection ---------------------------------------------------------

    @property
    def partition_count(self) -> int:
        """Partitions this policy arbitrates between."""
        return self._partition_count

    @property
    def handoff_threshold(self) -> float:
        """The hysteresis margin in force."""
        return self._threshold

    @property
    def epochs_observed(self) -> int:
        """Barriers at which :meth:`propose` has been called."""
        return self._epochs_observed

    def pending_keys(self) -> List[str]:
        """Structure keys with bids recorded this epoch (sorted)."""
        return sorted(self._bids)

    # -- recording -------------------------------------------------------------

    def record(self, key: str, partition: int, benefit: float) -> None:
        """Record that ``partition`` derived ``benefit`` dollars from ``key``.

        Benefits accumulate as a multiset (summed exactly at decision
        time), so the handoff set is identical for any recording order.
        """
        if not key:
            raise DistCacheError("structure key must not be empty")
        if not 0 <= partition < self._partition_count:
            raise DistCacheError(
                f"bid partition must be in [0, {self._partition_count}), "
                f"got {partition}")
        if benefit < 0:
            raise DistCacheError(
                f"benefit must be non-negative, got {benefit}")
        self._bids.setdefault(key, {}).setdefault(partition, []).append(
            benefit)

    # -- decisions -------------------------------------------------------------

    def propose(self, owners: Mapping[str, int]) -> List[HandoffDecision]:
        """Drain the epoch's tallies into a deterministic handoff set.

        Args:
            owners: current owner of every key that may move (typically
                ``{key: partitioner.partition_of(key) for key in ...}``).
                Keys with bids but no entry here are skipped — the caller
                decides which structures are eligible (the runner only
                offers structures resident on their current owner, so a
                handoff always has residency state to transfer).

        Returns:
            Decisions in key-sorted order. For each key the challenger is
            the partition with the exactly-summed highest benefit (ties
            break toward the lowest index); it wins only when it is not
            the incumbent and its benefit exceeds the incumbent's by more
            than the hysteresis threshold.
        """
        decisions: List[HandoffDecision] = []
        for key in sorted(self._bids):
            owner = owners.get(key)
            if owner is None:
                continue
            if not 0 <= owner < self._partition_count:
                raise DistCacheError(
                    f"owner of {key!r} is partition {owner}, outside "
                    f"[0, {self._partition_count})")
            totals = {
                partition: math.fsum(amounts)
                for partition, amounts in self._bids[key].items()
            }
            incumbent_benefit = totals.get(owner, 0.0)
            challenger, challenger_benefit = min(
                totals.items(), key=lambda item: (-item[1], item[0]))
            if challenger == owner:
                continue
            if not challenger_benefit > incumbent_benefit + self._threshold:
                continue
            decisions.append(HandoffDecision(
                key=key,
                from_partition=owner,
                to_partition=challenger,
                challenger_benefit=challenger_benefit,
                incumbent_benefit=incumbent_benefit,
            ))
        self._bids.clear()
        self._epochs_observed += 1
        return decisions
