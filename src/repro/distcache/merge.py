"""Exact merge and audit of per-partition results.

Partitioned mode changes the simulation's semantics (see
``docs/distcache.md``), so unlike :mod:`repro.sharding.merge` there is no
byte-identity barrier against a replicated twin. What *is* pinned exactly
— bitwise, no tolerances — is the money:

* **Ledger integrity.** Every provider sub-account's credit, and every
  tenant wallet's balance, equals the left fold of its own transaction
  ledger. Credits are maintained incrementally by exactly those
  additions, so replaying the ledger must reproduce the live value
  bit-for-bit; any difference means an account was mutated outside its
  ledger.
* **Payment conservation.** Per partition, the ``query_payment`` total of
  the provider sub-account equals the fold of the partition's per-query
  charges in processing order — the same floats in the same order on both
  sides, hence bitwise equality — and therefore the partition-ordered
  sums across the run conserve bitwise too: every dollar a tenant was
  charged was banked by exactly one sub-account.

The fold back into a :class:`~repro.experiments.tenants.TenantCellResult`
reuses the unsharded reporting pipeline: steps re-sort under the arrival
order, tenant breakdowns under the same total order the unsharded run
uses, and with a single partition the merge is bitwise the unpartitioned
result (the fidelity gate ``--cache-partitions 1`` relies on).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.distcache.engine import PartitionedEconomyEngine
from repro.economy.account import CloudAccount, ledger_fold
from repro.economy.tenancy import TenantRegistry
from repro.errors import DistCacheError
from repro.experiments.tenants import (
    TenantCellResult,
    TenantExperimentConfig,
    sorted_breakdowns,
)
from repro.policies.base import SchemeStep
from repro.simulator.metrics import MetricsCollector


@dataclass(frozen=True)
class PartitionCheckpoint:
    """One settlement barrier's audited snapshot of the partitioned economy.

    All tuples are indexed by partition. ``query_payments`` (the provider
    side) and ``outcome_charges`` (the tenant side) are verified bitwise
    equal per partition before the checkpoint is recorded.
    ``handoffs_applied`` counts the adaptive-placement ownership handoffs
    this barrier applied (always 0 under ``--placement hash``); the
    conservation audit runs *after* them, so every checkpoint certifies
    that moving residency moved no money.
    """

    time_s: float
    epoch: int
    directory_size: int
    subaccount_credit: Tuple[float, ...]
    query_payments: Tuple[float, ...]
    outcome_charges: Tuple[float, ...]
    handoffs_applied: int = 0

    @property
    def conserved_total(self) -> float:
        """The conserved cross-partition total: what tenants paid, summed
        in partition order (bitwise equal to the provider-side sum)."""
        total = 0.0
        for charge in self.outcome_charges:
            total += charge
        return total


def outcome_charge_fold(engine: PartitionedEconomyEngine) -> float:
    """Fold of the partition's per-query charges, in processing order.

    Mirrors the provider sub-account's ``query_payment`` deposits one to
    one: the engine deposits exactly ``outcome.charge`` per query, in the
    same order, so the two folds add the same floats in the same order.
    """
    total = 0.0
    for outcome in engine.outcomes:
        total += outcome.charge
    return total


def verify_subaccount_integrity(
        engines: Sequence[PartitionedEconomyEngine]) -> None:
    """Every sub-account's credit must fold bitwise from its own ledger."""
    for engine in engines:
        folded = ledger_fold(engine.account)
        if folded != engine.account.credit:
            raise DistCacheError(
                f"sub-account integrity violated on partition "
                f"{engine.partition_index}: ledger folds to {folded!r} but "
                f"credit is {engine.account.credit!r}"
            )


def verify_payment_conservation(
        engines: Sequence[PartitionedEconomyEngine]
        ) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """Provider deposits must equal tenant charges, bitwise, per partition.

    Returns:
        ``(payments, charges)`` — the provider-side and tenant-side folds
        per partition, computed independently (checkpoints record both,
        so a post-hoc audit can re-compare them rather than trusting this
        function ran).

    Raises:
        DistCacheError: on the first partition whose sub-account banked a
            different total than its queries charged.
    """
    payments: List[float] = []
    charges: List[float] = []
    for engine in engines:
        banked = engine.account.totals_by_category().get(
            CloudAccount.CATEGORY_QUERY_PAYMENT, 0.0)
        charged = outcome_charge_fold(engine)
        if banked != charged:
            raise DistCacheError(
                f"payment conservation violated on partition "
                f"{engine.partition_index}: sub-account banked {banked!r} "
                f"but queries charged {charged!r}"
            )
        payments.append(banked)
        charges.append(charged)
    return tuple(payments), tuple(charges)


def verify_wallet_integrity(
        registries: Sequence[TenantRegistry]) -> None:
    """Every tenant wallet's balance must fold bitwise from its ledger.

    The wallets a registry still holds are folded here; the ones churn
    dropped were folded as they were dropped, and any of those that did
    not fold to its balance is counted on the registry.
    """
    for partition, registry in enumerate(registries):
        for state in registry.states():
            folded = ledger_fold(state.account)
            if folded != state.account.credit:
                raise DistCacheError(
                    f"wallet integrity violated for tenant "
                    f"{state.tenant_id!r} on partition {partition}: ledger "
                    f"folds to {folded!r} but balance is "
                    f"{state.account.credit!r}"
                )
        if registry.churned_ledger_mismatches:
            raise DistCacheError(
                f"wallet integrity violated on partition {partition}: "
                f"{registry.churned_ledger_mismatches} of the "
                f"{registry.churned_ledgers_folded} wallets churn dropped "
                f"did not fold to their balance"
            )


def merged_wallets(registries: Sequence[TenantRegistry],
                   steps: Sequence[SchemeStep]
                   ) -> Tuple[Tuple[str, float], ...]:
    """Merge per-partition wallet views into one balance per tenant.

    Every partition seeds every wallet with the tenant's full credit and
    charges only the queries it served, so the merged balance is ``seed -
    sum of charged totals across partitions`` (summed in partition order).
    A charged total is the wallet's running left fold of its charges,
    carried through churn, so the sum is bitwise what wallets that were
    never dropped would give. Ordering follows the unpartitioned
    registry: population mint order first, then ad-hoc ids by first
    appearance in the merged query stream.
    """
    if not registries:
        return ()
    if len(registries) == 1:
        return tuple(registries[0].credit_by_tenant().items())
    books = [registry.wallet_books() for registry in registries]
    ordered: List[str] = list(books[0])
    known = set(ordered)
    extra = {tid for book in books for tid in book if tid not in known}
    for step in steps:
        if step.tenant_id in extra:
            ordered.append(step.tenant_id)
            extra.discard(step.tenant_id)
    ordered.extend(sorted(extra))

    merged: List[Tuple[str, float]] = []
    for tenant_id in ordered:
        seed = 0.0
        charged = 0.0
        for book in books:
            wallet = book.get(tenant_id)
            if wallet is None:
                continue
            seed = wallet.seed
            charged += wallet.charged
        merged.append((tenant_id, seed - charged))
    return tuple(merged)


def merge_partition_results(
        config: TenantExperimentConfig,
        steps_by_partition: Sequence[Sequence[SchemeStep]],
        maintenance_by_partition: Sequence[Sequence[Tuple[float, float]]],
        registries: Sequence[TenantRegistry],
        duration_s: float,
        population_size: int,
        churn_waves: int,
        kernel_losses_by_partition: Sequence[Sequence[float]] = (),
        ) -> TenantCellResult:
    """Fold per-partition outputs into one cell result.

    With one partition the replay is handed to a fresh collector in the
    exact order the unpartitioned simulation would have produced, making
    the result bitwise identical to
    :func:`repro.experiments.tenants.run_tenant_cell`. With several, the
    steps interleave under the arrival order and maintenance totals add
    in partition order; ``duration_s`` is the global run span.
    ``kernel_losses_by_partition`` carries kernel-driven eviction losses
    (invalidation shocks, strict-maintenance shutdowns) per partition in
    event order; they book exactly like
    :meth:`~repro.simulator.metrics.MetricsCollector.record_kernel_evictions`
    in the unpartitioned run.
    """
    collector = MetricsCollector(config.scheme)
    if len(steps_by_partition) == 1:
        for step in steps_by_partition[0]:
            collector.record_step(step)
        for dollars, elapsed in maintenance_by_partition[0]:
            collector.record_maintenance(dollars, elapsed)
    else:
        merged_steps: List[SchemeStep] = []
        for steps in steps_by_partition:
            merged_steps.extend(steps)
        merged_steps.sort(key=lambda step: (step.arrival_time_s, step.query_id))
        for step in merged_steps:
            collector.record_step(step)
        total_maintenance = 0.0
        for records in maintenance_by_partition:
            for dollars, _ in records:
                total_maintenance += dollars
        collector.record_maintenance(total_maintenance, duration_s)

    for losses in kernel_losses_by_partition:
        # The losses are already dollars: book them through the same
        # accumulator the event loop uses, with an identity loss function.
        collector.record_kernel_evictions(losses, loss_of=lambda loss: loss)

    result_steps = collector.steps
    return TenantCellResult(
        config=config,
        summary=collector.summary(),
        tenants=sorted_breakdowns(result_steps),
        wallet_credit=merged_wallets(registries, result_steps),
        population_size=population_size,
        churn_waves=churn_waves,
    )
