"""Exact merge of per-shard results back into one cell result.

The merge has two jobs, in order:

1. **Verify the barriers.** Every replicated quantity — the run summary,
   the population shape, and the replicated half of every
   :class:`~repro.sharding.worker.SettlementCheckpoint` — must be bitwise
   identical across shards. Divergence means the replay was not
   deterministic, and the merge refuses to produce a result built on it.
   Shard-local halves must *add up*: at every settlement barrier the
   credit that left the owned wallets of all shards together equals the
   query payments the (replicated) provider account banked.

2. **Fold the ownership.** Per-tenant breakdowns and wallets are disjoint
   across shards by construction of the partitioner, so the fold is a
   concatenation plus a re-sort under the same total orders the unsharded
   run uses — which is what makes the merged report byte-identical to the
   single-process one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ShardingError
from repro.experiments.tenants import TenantCellResult, TenantExperimentConfig
from repro.obs.trace import TraceRecorder
from repro.sharding.worker import ShardResult
from repro.simulator.metrics import TenantBreakdown

#: Tolerance of the cross-shard conservation audit. Shard-local sums reduce
#: the same ledger entries in a different association order than the
#: provider's running total, so the comparison is close-to, not bitwise.
CONSERVATION_REL_TOL = 1e-9
CONSERVATION_ABS_TOL = 1e-6


@dataclass(frozen=True)
class ShardMergeReport:
    """A merged cell plus the audit trail of how it was verified."""

    cell: TenantCellResult
    shard_count: int
    owned_tenants_per_shard: Tuple[int, ...]
    barriers_verified: int
    max_conservation_residual: float
    recorder: Optional[TraceRecorder] = None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ShardingError(message)


def _conserved(lhs: float, rhs: float) -> float:
    """Residual of a conservation identity; raises when out of tolerance."""
    residual = abs(lhs - rhs)
    if not math.isclose(lhs, rhs, rel_tol=CONSERVATION_REL_TOL,
                        abs_tol=CONSERVATION_ABS_TOL):
        raise ShardingError(
            f"credit conservation violated: {lhs!r} != {rhs!r} "
            f"(residual {residual!r})"
        )
    return residual


def _verify_replicated(shards: Sequence[ShardResult]) -> None:
    """Every replicated quantity must agree bitwise across shards."""
    first = shards[0]
    for shard in shards[1:]:
        for attribute in ("scheme", "summary", "population_size",
                          "churn_waves"):
            if getattr(shard, attribute) != getattr(first, attribute):
                raise ShardingError(
                    f"determinism barrier failed: shard {shard.shard_index} "
                    f"disagrees with shard {first.shard_index} on "
                    f"{attribute}"
                )
        if len(shard.checkpoints) != len(first.checkpoints):
            raise ShardingError(
                f"determinism barrier failed: shard {shard.shard_index} saw "
                f"{len(shard.checkpoints)} settlement barriers, shard "
                f"{first.shard_index} saw {len(first.checkpoints)}"
            )
        for reference, observed in zip(first.checkpoints, shard.checkpoints):
            for attribute in ("time_s", "queries_dispatched",
                              "provider_credit", "provider_query_payments"):
                if getattr(observed, attribute) != getattr(reference, attribute):
                    raise ShardingError(
                        f"determinism barrier failed at t={reference.time_s}: "
                        f"shard {shard.shard_index} disagrees on {attribute} "
                        f"({getattr(observed, attribute)!r} != "
                        f"{getattr(reference, attribute)!r})"
                    )


def _verify_conservation(shards: Sequence[ShardResult]) -> Tuple[int, float]:
    """Cross-shard credit conservation at every settlement barrier.

    Two identities per barrier:

    * each shard's own books balance: the seed credit minted by the
      barrier (``owned_seed_credit``, growing with arrivals) == wallet credit
      left plus everything charged out of the shard's wallets;
    * the union of shard-local charges equals the query payments the
      replicated provider account banked — i.e. every dollar the provider
      received was booked by exactly one owning shard.

    Returns:
        ``(barriers verified, max residual observed)``.
    """
    barrier_count = len(shards[0].checkpoints)
    max_residual = 0.0
    for barrier in range(barrier_count):
        points = [shard.checkpoints[barrier] for shard in shards]
        for shard, point in zip(shards, points):
            max_residual = max(max_residual, _conserved(
                point.owned_seed_credit,
                point.owned_wallet_credit + point.owned_charged,
            ))
        max_residual = max(max_residual, _conserved(
            sum(point.owned_charged for point in points),
            points[0].provider_query_payments,
        ))
    # End-of-run, per shard: what it booked plus what it saw others own
    # must equal the provider's income — a mis-tallied foreign charge
    # cannot hide behind the cross-shard sum above.
    for shard in shards:
        final = shard.checkpoints[-1]
        max_residual = max(max_residual, _conserved(
            final.owned_charged + shard.foreign_charged,
            final.provider_query_payments,
        ))
        # By the final barrier every tenant has been minted, so the
        # barrier's seed-so-far must equal the shard's reported total —
        # exactly, both being the same running sum.
        _require(
            final.owned_seed_credit == shard.owned_initial_credit,
            f"shard {shard.shard_index} finished with "
            f"owned_seed_credit={final.owned_seed_credit!r} but reported "
            f"owned_initial_credit={shard.owned_initial_credit!r}",
        )
    return barrier_count, max_residual


def merge_shard_results(shards: Sequence[ShardResult],
                        config: TenantExperimentConfig) -> ShardMergeReport:
    """Fold one cell's shard results into a verified merged cell.

    Args:
        shards: one :class:`ShardResult` per shard, any order.
        config: the cell configuration the shards executed.

    Returns:
        The merged cell plus its audit trail.

    Raises:
        ShardingError: on missing/duplicate shards, on any determinism
            barrier divergence, or on a conservation violation.
    """
    results = sorted(shards, key=lambda shard: shard.shard_index)
    _require(bool(results), "cannot merge zero shard results")
    shard_count = results[0].shard_count
    _require(
        all(shard.shard_count == shard_count for shard in results),
        "shard results disagree on the shard count",
    )
    _require(
        [shard.shard_index for shard in results] == list(range(shard_count)),
        f"expected shard indices 0..{shard_count - 1}, got "
        f"{sorted(shard.shard_index for shard in shards)}",
    )
    _verify_replicated(results)
    barriers, max_residual = (0, 0.0)
    if results[0].checkpoints:
        barriers, max_residual = _verify_conservation(results)

    # Ownership must be disjoint: every tenant reported by exactly one shard.
    merged_breakdowns: List[TenantBreakdown] = []
    for shard in results:
        merged_breakdowns.extend(shard.tenants)
    tenant_ids = [item.tenant_id for item in merged_breakdowns]
    _require(len(tenant_ids) == len(set(tenant_ids)),
             "a tenant was reported by more than one shard")
    merged_breakdowns.sort(key=lambda item: (-item.query_count, item.tenant_id))

    wallet_entries: List[Tuple[int, str, float]] = []
    for shard in results:
        wallet_entries.extend(shard.wallets)
    wallet_ids = [tenant_id for _, tenant_id, _ in wallet_entries]
    _require(len(wallet_ids) == len(set(wallet_ids)),
             "a wallet was reported by more than one shard")
    wallet_entries.sort(key=lambda entry: (entry[0], entry[1]))
    wallets = tuple((tenant_id, credit)
                    for _, tenant_id, credit in wallet_entries)

    cell = TenantCellResult(
        config=config,
        summary=results[0].summary,
        tenants=tuple(merged_breakdowns),
        wallet_credit=wallets,
        population_size=results[0].population_size,
        churn_waves=results[0].churn_waves,
    )
    # Fold the per-shard recorders (when the cell ran observed) the same
    # way the checkpoints fold: records and samples keep their shard
    # source tags, so the merged series report the replicated replay per
    # shard.
    recorder: Optional[TraceRecorder] = None
    for shard in results:
        if shard.recorder is not None:
            if recorder is None:
                recorder = shard.recorder.fresh("merge")
            recorder.absorb(shard.recorder)
    return ShardMergeReport(
        cell=cell,
        shard_count=shard_count,
        owned_tenants_per_shard=tuple(
            shard.owned_tenant_count for shard in results),
        barriers_verified=barriers,
        max_conservation_residual=max_residual,
        recorder=recorder,
    )
