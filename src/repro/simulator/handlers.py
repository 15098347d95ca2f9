"""Standard event handlers wiring schemes and maintenance to the kernel.

The old simulation loop special-cased maintenance settlement inline
between arrivals; here the same accounting is expressed as handlers:

* :class:`SchemeTenant` — connects one caching scheme (and its metrics
  collector) to the kernel. Arrivals settle the tenant's maintenance up
  to the arrival instant and then drive the scheme; settlement and
  failure-check events settle without running a query. Several tenants
  can share one kernel (and therefore one clock) in a single run.
* :class:`PeriodicRescheduler` — re-schedules periodic settlement /
  failure-check events up to a horizon. Register it **once** per kernel
  (not per tenant), or periodic events would multiply.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.errors import SimulationError
from repro.policies.base import CachingScheme
from repro.simulator.events import (
    Event,
    MaintenanceSettlementEvent,
    ProviderPriceShockEvent,
    QueryArrivalEvent,
    StructureFailureCheckEvent,
    StructureInvalidationEvent,
    TenantArrivalEvent,
    TenantBudgetSqueezeEvent,
    TenantChurnEvent,
    WorkloadPhaseChangeEvent,
)
from repro.simulator.kernel import SimulationKernel
from repro.simulator.metrics import MetricsCollector


class SchemeTenant:
    """One scheme's view of a shared simulation run.

    Maintenance accrues continuously at the scheme's current rate; the
    rate only changes when the scheme processes a query, so settling at
    every event boundary integrates the cost exactly.
    """

    def __init__(self, scheme: CachingScheme, collector: MetricsCollector,
                 start_time_s: float = 0.0) -> None:
        self._scheme = scheme
        self._collector = collector
        self._settled_to_s = start_time_s
        self._tenant_arrivals = 0
        self._tenant_churns = 0

    # -- introspection ---------------------------------------------------------

    @property
    def scheme(self) -> CachingScheme:
        """The scheme this tenant drives."""
        return self._scheme

    @property
    def collector(self) -> MetricsCollector:
        """The metrics collector accumulating this tenant's run."""
        return self._collector

    @property
    def tenant_arrivals_seen(self) -> int:
        """Tenants that arrived so far (summed over arrival cohorts)."""
        return self._tenant_arrivals

    @property
    def tenant_churns_seen(self) -> int:
        """Tenants that churned so far (summed over churn cohorts)."""
        return self._tenant_churns

    # -- wiring ----------------------------------------------------------------

    def register(self, kernel: SimulationKernel) -> None:
        """Register this tenant's handlers on ``kernel``."""
        kernel.register(QueryArrivalEvent, self.on_arrival)
        kernel.register(MaintenanceSettlementEvent, self.on_settlement)
        kernel.register(StructureFailureCheckEvent, self.on_failure_check)
        kernel.register(WorkloadPhaseChangeEvent, self.on_phase_change)
        kernel.register(TenantArrivalEvent, self.on_tenant_arrival)
        kernel.register(TenantChurnEvent, self.on_tenant_churn)
        kernel.register(StructureInvalidationEvent, self.on_invalidation)
        kernel.register(ProviderPriceShockEvent, self.on_price_shock)
        kernel.register(TenantBudgetSqueezeEvent, self.on_budget_squeeze)

    # -- handlers --------------------------------------------------------------

    def on_arrival(self, event: Event, kernel: SimulationKernel) -> None:
        """Settle maintenance up to the arrival, then serve the query."""
        assert isinstance(event, QueryArrivalEvent)
        self._settle(event.time_s)
        self._collector.record_step(self._scheme.process(event.query))

    def on_settlement(self, event: Event, kernel: SimulationKernel) -> None:
        """Charge maintenance accrued since the last settlement.

        Settlement is also where the strict-maintenance shutdown policy
        runs (a no-op for schemes without one): accrual is compared with
        income and the lowest-benefit structures are shut down first.
        """
        self._settle(event.time_s)
        records = self._scheme.enforce_maintenance(event.time_s)
        if records:
            self._collector.record_kernel_evictions(
                records, loss_of=self._scheme.eviction_loss)

    def on_invalidation(self, event: Event, kernel: SimulationKernel) -> None:
        """Destroy matching cached structures mid-run (settle first).

        The losses are booked exactly like kernel failure evictions; the
        scheme must re-earn the structures through its normal admission
        path. No money moves.
        """
        assert isinstance(event, StructureInvalidationEvent)
        self._settle(event.time_s)
        records = self._scheme.apply_invalidation(event.predicate,
                                                  event.time_s)
        if records:
            self._collector.record_kernel_evictions(
                records, loss_of=self._scheme.eviction_loss)

    def on_price_shock(self, event: Event, kernel: SimulationKernel) -> None:
        """Reprice the provider market (maintenance settles at the old rate
        first — the event boundary keeps the integral piecewise-exact)."""
        assert isinstance(event, ProviderPriceShockEvent)
        self._settle(event.time_s)
        self._scheme.apply_price_shock(event.factor, event.time_s)

    def on_budget_squeeze(self, event: Event, kernel: SimulationKernel) -> None:
        """Scale tenant willingness-to-pay from this instant on."""
        assert isinstance(event, TenantBudgetSqueezeEvent)
        self._settle(event.time_s)
        self._scheme.apply_budget_squeeze(event.factor, event.time_s)

    def on_failure_check(self, event: Event, kernel: SimulationKernel) -> None:
        """Release idle-failed structures (after settling up to now)."""
        self._settle(event.time_s)
        records = self._scheme.cache.evict_failed_structures(event.time_s)
        if records:
            self._collector.record_kernel_evictions(
                records, loss_of=self._scheme.eviction_loss)

    def on_phase_change(self, event: Event, kernel: SimulationKernel) -> None:
        """Observe a workload phase boundary (schemes are self-tuned, so
        the boundary is informational only)."""

    def on_tenant_arrival(self, event: Event, kernel: SimulationKernel) -> None:
        """Activate the arriving cohort in the scheme's registry (if any)."""
        assert isinstance(event, TenantArrivalEvent)
        self._tenant_arrivals += len(event.tenants)
        registry = self._scheme.tenant_registry
        if registry is not None:
            registry.activate(event.tenants, now=event.time_s)

    def on_tenant_churn(self, event: Event, kernel: SimulationKernel) -> None:
        """Deactivate the churning cohort in the scheme's registry (if any).

        The tenants' wallets and regret histories are retained: a
        returning tenant resumes with its old balance, and end-of-run
        reports still cover churned tenants.
        """
        assert isinstance(event, TenantChurnEvent)
        self._tenant_churns += len(event.tenants)
        registry = self._scheme.tenant_registry
        if registry is not None:
            registry.deactivate(event.tenants, now=event.time_s)

    # -- internals -------------------------------------------------------------

    def _settle(self, now: float) -> None:
        elapsed = now - self._settled_to_s
        self._settled_to_s = max(self._settled_to_s, now)
        if elapsed <= 0:
            return
        rate = self._scheme.maintenance_rate()
        self._collector.record_maintenance(rate * elapsed, elapsed)


class PeriodicRescheduler:
    """Chains periodic events: re-schedules any event carrying ``period_s``.

    Register once per kernel, for each periodic event type, *after* the
    tenants — registration order is dispatch order, so the follow-up is
    scheduled only after every tenant has handled the current occurrence.
    """

    def __init__(self, horizon_s: Optional[float] = None) -> None:
        if horizon_s is not None and horizon_s < 0:
            raise SimulationError("horizon_s must be non-negative")
        self._horizon_s = horizon_s

    def __call__(self, event: Event, kernel: SimulationKernel) -> None:
        period = getattr(event, "period_s", None)
        if not period:
            return
        next_time = event.time_s + period
        if self._horizon_s is not None and next_time > self._horizon_s:
            return
        kernel.schedule(replace(event, time_s=next_time))
