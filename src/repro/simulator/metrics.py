"""Metric collection for a simulation run.

The two headline metrics are the ones Figures 4 and 5 plot — total operating
cost of the caching infrastructure (execution resources + structure builds +
storage/uptime maintenance) and average query response time — but the
collector also keeps the breakdowns and series the analysis in Section VII-B
refers to (cache hit rate, builds, evictions, per-resource spend, profit).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.policies.base import SchemeStep


@dataclass(frozen=True)
class MetricsSummary:
    """Aggregated results of one simulation run."""

    scheme_name: str
    query_count: int
    duration_s: float
    operating_cost: float
    execution_cpu_dollars: float
    execution_io_dollars: float
    execution_network_dollars: float
    build_dollars: float
    maintenance_dollars: float
    mean_response_time_s: float
    median_response_time_s: float
    p95_response_time_s: float
    cache_hit_rate: float
    total_network_bytes: float
    total_charge: float
    total_profit: float
    builds: int
    evictions: int
    eviction_losses: float

    @property
    def execution_dollars(self) -> float:
        """Total execution resource spend."""
        return (self.execution_cpu_dollars + self.execution_io_dollars
                + self.execution_network_dollars)

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary form used by the experiment reports."""
        return {
            "scheme": self.scheme_name,
            "queries": self.query_count,
            "duration_s": self.duration_s,
            "operating_cost": self.operating_cost,
            "execution_cpu": self.execution_cpu_dollars,
            "execution_io": self.execution_io_dollars,
            "execution_network": self.execution_network_dollars,
            "build": self.build_dollars,
            "maintenance": self.maintenance_dollars,
            "mean_response_s": self.mean_response_time_s,
            "median_response_s": self.median_response_time_s,
            "p95_response_s": self.p95_response_time_s,
            "cache_hit_rate": self.cache_hit_rate,
            "network_bytes": self.total_network_bytes,
            "charge": self.total_charge,
            "profit": self.total_profit,
            "builds": self.builds,
            "evictions": self.evictions,
            "eviction_losses": self.eviction_losses,
        }


@dataclass(frozen=True)
class TenantBreakdown:
    """Per-tenant aggregate of one simulation run.

    Rolled up from the :class:`~repro.policies.base.SchemeStep` records of
    the queries the tenant issued; the tenant's wallet balance lives in the
    :class:`~repro.economy.tenancy.TenantRegistry` and is joined in by the
    reporting layer.
    """

    tenant_id: str
    query_count: int
    cache_hits: int
    total_charge: float
    total_profit: float
    mean_response_time_s: float

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of the tenant's queries served from the cache."""
        if self.query_count == 0:
            return 0.0
        return self.cache_hits / self.query_count


def breakdown_by_tenant(steps: Sequence[SchemeStep]) -> Dict[str, TenantBreakdown]:
    """Aggregate step records per tenant id.

    Args:
        steps: step records of one run, in any order.

    Returns:
        ``tenant_id -> TenantBreakdown`` in first-appearance order.
    """
    counts: Dict[str, int] = {}
    hits: Dict[str, int] = {}
    charges: Dict[str, float] = {}
    profits: Dict[str, float] = {}
    times: Dict[str, float] = {}
    for step in steps:
        tid = step.tenant_id
        counts[tid] = counts.get(tid, 0) + 1
        hits[tid] = hits.get(tid, 0) + (1 if step.served_in_cache else 0)
        charges[tid] = charges.get(tid, 0.0) + step.charge
        profits[tid] = profits.get(tid, 0.0) + step.profit
        times[tid] = times.get(tid, 0.0) + step.response_time_s
    return {
        tid: TenantBreakdown(
            tenant_id=tid,
            query_count=counts[tid],
            cache_hits=hits[tid],
            total_charge=charges[tid],
            total_profit=profits[tid],
            mean_response_time_s=times[tid] / counts[tid],
        )
        for tid in counts
    }


class MetricsCollector:
    """Accumulates per-query steps and time-proportional maintenance cost."""

    def __init__(self, scheme_name: str) -> None:
        if not scheme_name:
            raise SimulationError("scheme_name must not be empty")
        self._scheme_name = scheme_name
        self._steps: List[SchemeStep] = []
        self._maintenance_dollars = 0.0
        self._duration_s = 0.0
        self._kernel_evictions = 0
        self._kernel_eviction_losses = 0.0

    @property
    def steps(self) -> Tuple[SchemeStep, ...]:
        """Every recorded step, in arrival order."""
        return tuple(self._steps)

    @property
    def maintenance_dollars(self) -> float:
        """Storage and node-uptime cost accumulated so far."""
        return self._maintenance_dollars

    def record_step(self, step: SchemeStep) -> None:
        """Record one query's step."""
        self._steps.append(step)

    def record_maintenance(self, dollars: float, elapsed_s: float) -> None:
        """Record time-proportional cost accrued between events."""
        if dollars < 0 or elapsed_s < 0:
            raise SimulationError("maintenance cost and duration must be non-negative")
        self._maintenance_dollars += dollars
        self._duration_s += elapsed_s

    def record_kernel_evictions(self, records, loss_of) -> None:
        """Record evictions driven by kernel events rather than query steps.

        Scheduled structure-failure checks release structures between
        arrivals; those evictions belong to no query step, so they are
        accumulated here and folded into the summary totals.

        Args:
            records: the ``EvictionRecord`` objects the cache produced.
            loss_of: maps a record to the dollar loss the scheme books for
                it (schemes account evictions differently — pass the
                scheme's ``eviction_loss``).
        """
        for record in records:
            self._kernel_evictions += 1
            self._kernel_eviction_losses += loss_of(record)

    # -- aggregation --------------------------------------------------------------

    def response_times(self) -> np.ndarray:
        """Response times of all recorded queries."""
        return np.array([step.response_time_s for step in self._steps], dtype=float)

    def cumulative_cost_series(self) -> List[float]:
        """Cumulative execution+build spend after each query (no maintenance)."""
        running = 0.0
        series: List[float] = []
        for step in self._steps:
            running += step.resource_dollars
            series.append(running)
        return series

    def summary(self) -> MetricsSummary:
        """Aggregate everything recorded so far."""
        if not self._steps:
            raise SimulationError("no steps recorded; run the simulation first")
        times = self.response_times()
        execution_cpu = sum(step.execution_cpu_dollars for step in self._steps)
        execution_io = sum(step.execution_io_dollars for step in self._steps)
        execution_network = sum(step.execution_network_dollars for step in self._steps)
        build = sum(step.build_dollars for step in self._steps)
        operating = (execution_cpu + execution_io + execution_network + build
                     + self._maintenance_dollars)
        hits = sum(1 for step in self._steps if step.served_in_cache)
        return MetricsSummary(
            scheme_name=self._scheme_name,
            query_count=len(self._steps),
            duration_s=self._duration_s,
            operating_cost=operating,
            execution_cpu_dollars=execution_cpu,
            execution_io_dollars=execution_io,
            execution_network_dollars=execution_network,
            build_dollars=build,
            maintenance_dollars=self._maintenance_dollars,
            mean_response_time_s=float(times.mean()),
            median_response_time_s=float(np.median(times)),
            p95_response_time_s=float(np.percentile(times, 95)),
            cache_hit_rate=hits / len(self._steps),
            total_network_bytes=sum(step.network_bytes for step in self._steps),
            total_charge=sum(step.charge for step in self._steps),
            total_profit=sum(step.profit for step in self._steps),
            builds=sum(step.builds for step in self._steps),
            evictions=(sum(step.evictions for step in self._steps)
                       + self._kernel_evictions),
            eviction_losses=(sum(step.eviction_losses for step in self._steps)
                             + self._kernel_eviction_losses),
        )
