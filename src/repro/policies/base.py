"""Common interface of the caching schemes.

The simulator only needs two things from a scheme: process one query and
report what it cost (so Figures 4 and 5 can be regenerated), and expose the
cache manager (so storage and node-uptime costs can be integrated over
simulated time).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from repro.cache.manager import CacheManager
from repro.workload.query import Query


@dataclass(frozen=True)
class SchemeStep:
    """What one query cost under one scheme.

    All dollar figures are *resource* costs (what the infrastructure
    provider bills the cloud), not user charges; the user-side money flows
    are reported separately so profit can be analysed.
    """

    query_id: int
    template_name: str
    arrival_time_s: float
    response_time_s: float
    served_in_cache: bool
    plan_label: str
    execution_cpu_dollars: float
    execution_io_dollars: float
    execution_network_dollars: float
    build_dollars: float
    network_bytes: float
    charge: float
    profit: float
    builds: int
    evictions: int
    eviction_losses: float
    tenant_id: str = "default"

    @property
    def execution_dollars(self) -> float:
        """Total execution resource cost of the step."""
        return (self.execution_cpu_dollars + self.execution_io_dollars
                + self.execution_network_dollars)

    @property
    def resource_dollars(self) -> float:
        """Execution plus build resource cost of the step (no maintenance)."""
        return self.execution_dollars + self.build_dollars


class CachingScheme(abc.ABC):
    """A caching scheme the simulator can drive."""

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Scheme identifier used in reports (e.g. ``"econ-cheap"``)."""

    @property
    @abc.abstractmethod
    def cache(self) -> CacheManager:
        """The cache manager holding the scheme's built structures."""

    @abc.abstractmethod
    def process(self, query: Query) -> SchemeStep:
        """Serve one query and report its step record."""

    @property
    def plans_in_batches(self) -> bool:
        """Whether :meth:`prime_workload` feeds a batched planner."""
        return False

    def prime_workload(self, queries: Iterable[Query],
                       settlement_period_s: Optional[float] = None,
                       grid_start_s: Optional[float] = None) -> None:
        """Announce the upcoming arrivals before the run starts.

        Purely advisory: schemes with a batched planner pull the arrivals
        lazily, one window of settlement epochs at a time, and evaluate
        each window vectorized; the default (and every scalar scheme)
        ignores it. Outcomes must not depend on whether priming happened.
        """

    @property
    def tenant_registry(self):
        """The scheme's tenant registry, or ``None`` for single-tenant schemes.

        Schemes built on a multi-tenant economy override this with their
        :class:`~repro.economy.tenancy.TenantRegistry`; the simulator uses
        it to apply tenant arrival/churn events.
        """
        return None

    #: Current provider price multiplier (see :meth:`apply_price_shock`).
    _price_factor: float = 1.0

    def maintenance_rate(self) -> float:
        """Current $ per second of storage and node uptime the scheme pays.

        Scaled by the active provider price-shock factor: a shock
        reprices the provider's ongoing maintenance bill, not just new
        builds.
        """
        return self.cache.maintenance_rate_total() * self._price_factor

    def apply_invalidation(self, predicate: str, now: float) -> Tuple:
        """Destroy cached structures whose key contains ``predicate``.

        The default walks the scheme's cache in insertion order and
        evicts every match (an empty predicate matches everything),
        returning the eviction records so the caller can book the
        losses. Invalidation moves no money — schemes must re-earn the
        lost structures through their normal admission path.
        """
        matching = [entry.structure.key for entry in self.cache.entries
                    if predicate in entry.structure.key]
        records = []
        for key in matching:
            record = self.cache.evict(key, now=now, reason="invalidated")
            if record is not None:
                records.append(record)
        return tuple(records)

    def apply_price_shock(self, factor: float, now: float) -> None:
        """Reprice provider build/maintenance by ``factor`` from ``now`` on."""
        self._price_factor = factor

    def apply_budget_squeeze(self, factor: float, now: float) -> None:
        """Scale tenant willingness-to-pay by ``factor``; default: no-op.

        Only schemes with an economy have budgets to squeeze; the bypass
        baseline charges nothing and ignores the event.
        """

    def enforce_maintenance(self, now: float) -> Tuple:
        """Apply the scheme's maintenance-shutdown policy, if any.

        Called at every settlement. Schemes running a strict-maintenance
        economy evict their lowest-benefit structures when accrued
        maintenance exceeds income and return the eviction records; the
        default keeps everything.
        """
        return ()

    def eviction_loss(self, record) -> float:
        """Dollar loss one eviction record contributes to this scheme's metrics.

        The economic schemes count unpaid maintenance plus the unrecovered
        build investment; schemes with a different accounting (the bypass
        baseline only tracks unrecovered build cost) override this so that
        kernel-driven evictions are booked identically to per-query ones.
        """
        return record.unpaid_maintenance + record.unrecovered_build_cost
