"""Exact merge and audit of per-partition results.

Partitioned mode changes the simulation's semantics (see
``docs/distcache.md``), so unlike :mod:`repro.sharding.merge` there is no
byte-identity barrier against a replicated twin. What *is* pinned exactly
— bitwise, no tolerances — is the money, by
:func:`~repro.economy.account.audit_conservation` on every partition at
every barrier (and on its wallets at the end of the run): each provider
sub-account banked exactly what the partition's queries charged, its
credit folds from its own ledger, and so does every tenant wallet. The
partition-ordered sums across the run therefore conserve bitwise too:
every dollar a tenant was charged was banked by exactly one sub-account.

The fold back into a :class:`~repro.experiments.tenants.TenantCellResult`
reuses the unsharded reporting pipeline: steps re-sort under the arrival
order, tenant breakdowns under the same total order the unsharded run
uses, and with a single partition the merge is bitwise the unpartitioned
result (the fidelity gate ``--cache-partitions 1`` relies on).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.economy.tenancy import TenantRegistry
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
    side) and ``outcome_charges`` (the tenant side) are read off each
    partition's conservation audit, which required them bitwise equal
    before the checkpoint is recorded.
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
