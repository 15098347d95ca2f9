"""Execution cost and response time of query plans (Eqs. 8 and 9).

The analytic execution model maps a query onto the bytes it processes, turns
those into optimizer cost units (``qtot``) and I/O operations (``iotot``),
and then applies the paper's equations:

* queries that run completely in the cache are priced by Eq. 8,
* queries that run in the back-end and ship their result over the network
  are priced by Eq. 9 (back-end execution plus transfer CPU plus bandwidth).

Response time is the CPU wall-clock of the plan (the paper emulates SDSS
response times through ``fcpu``), divided by the multi-node speed-up, plus
network transfer time for back-end plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.catalog.statistics import SelectivityEstimator
from repro.costmodel.config import CostModelConfig
from repro.costmodel.scaling import cpu_overhead_factor, speedup_factor
from repro.errors import PlanningError
from repro.structures.cached_index import CachedIndex
from repro.workload.query import PredicateKind, Query


@dataclass(frozen=True)
class ExecutionEstimate:
    """Everything the economy needs to know about executing one plan.

    Attributes:
        cost_units: ``qtot``, the optimizer cost units of the plan.
        io_operations: ``iotot`` after applying ``fio``.
        cpu_seconds: billable CPU seconds (work, including multi-node
            coordination overhead and transfer management).
        network_bytes: bytes moved between back-end and cache.
        response_time_s: wall-clock seconds the user waits.
        cpu_dollars: CPU component of the execution cost.
        io_dollars: I/O component of the execution cost.
        network_dollars: network-bandwidth component of the execution cost.
    """

    cost_units: float
    io_operations: float
    cpu_seconds: float
    network_bytes: float
    response_time_s: float
    cpu_dollars: float
    io_dollars: float
    network_dollars: float

    @property
    def dollars(self) -> float:
        """Total execution cost ``Ce`` in dollars."""
        return self.cpu_dollars + self.io_dollars + self.network_dollars

    def combined_with(self, other: "ExecutionEstimate") -> "ExecutionEstimate":
        """Sum of two estimates (used to add a transfer leg onto an execution leg)."""
        return ExecutionEstimate(
            cost_units=self.cost_units + other.cost_units,
            io_operations=self.io_operations + other.io_operations,
            cpu_seconds=self.cpu_seconds + other.cpu_seconds,
            network_bytes=self.network_bytes + other.network_bytes,
            response_time_s=self.response_time_s + other.response_time_s,
            cpu_dollars=self.cpu_dollars + other.cpu_dollars,
            io_dollars=self.io_dollars + other.io_dollars,
            network_dollars=self.network_dollars + other.network_dollars,
        )


class ExecutionCostModel:
    """Prices query execution in the cache and in the back-end database."""

    def __init__(self, config: CostModelConfig,
                 estimator: SelectivityEstimator) -> None:
        self._config = config
        self._estimator = estimator
        # One-slot memo of the query's full-scan bytes: the enumerator
        # prices every plan of one query in a row.
        self._scan_query: Optional[Query] = None
        self._scan_bytes = 0.0

    @property
    def config(self) -> CostModelConfig:
        """The cost-model configuration."""
        return self._config

    @property
    def estimator(self) -> SelectivityEstimator:
        """The selectivity estimator backing size computations."""
        return self._estimator

    # -- Eq. 8: execution in the cache ----------------------------------------

    def cache_execution(self, query: Query,
                        index: Optional[CachedIndex] = None,
                        node_count: int = 1) -> ExecutionEstimate:
        """Cost and response time of running ``query`` entirely in the cache.

        Args:
            query: the query to execute.
            index: an index the plan probes instead of scanning the filtered
                columns sequentially, or ``None`` for a pure column scan.
            node_count: total CPU nodes executing the query (>= 1).
        """
        return self.cache_executions(query, index, (node_count,))[0]

    def cache_executions(self, query: Query, index: Optional[CachedIndex],
                         node_counts: Sequence[int]) -> List[ExecutionEstimate]:
        """:meth:`cache_execution` for each of ``node_counts``, in order.

        The bytes the plan processes do not depend on the node count, so
        they are computed once; each estimate is the same Eq. 8 expression
        tree a single :meth:`cache_execution` call evaluates.
        """
        for node_count in node_counts:
            if node_count < 1:
                raise PlanningError(f"node_count must be >= 1, got {node_count}")
        config = self._config
        processed_bytes = self._processed_bytes(query, index)
        cost_units = query.base_cost_factor * processed_bytes / config.bytes_per_cost_unit
        single_node_cpu_s = config.cpu_load_factor * config.cpu_cost_factor * cost_units
        io_operations = config.io_cost_factor * processed_bytes / config.io_page_bytes
        io_dollars = io_operations * config.pricing.io_operation

        estimates: List[ExecutionEstimate] = []
        for node_count in node_counts:
            overhead = cpu_overhead_factor(node_count)
            speedup = speedup_factor(node_count, query.parallel_fraction)
            cpu_seconds = single_node_cpu_s * overhead
            estimates.append(ExecutionEstimate(
                cost_units=cost_units,
                io_operations=io_operations,
                cpu_seconds=cpu_seconds,
                network_bytes=0.0,
                response_time_s=single_node_cpu_s / speedup,
                cpu_dollars=cpu_seconds * config.pricing.cpu_second,
                io_dollars=io_dollars,
                network_dollars=0.0,
            ))
        return estimates

    # -- Eq. 9: execution in the back-end, result shipped over the network ----

    def backend_execution(self, query: Query) -> ExecutionEstimate:
        """Cost and response time of running ``query`` in the back-end database.

        Eq. 9: the back-end executes the query (priced like a cache execution
        on a single node, scanning full columns — the back-end has no special
        indexes in this model) and the result ``S(Q)`` is transferred to the
        cache over the WAN.
        """
        execution = self.cache_execution(query, index=None, node_count=1)
        result_bytes = query.result_bytes(self._estimator)
        transfer = self.transfer(result_bytes)
        return execution.combined_with(transfer)

    # -- network transfer (shared by Eq. 9 and Eq. 12) --------------------------

    def transfer(self, size_bytes: float) -> ExecutionEstimate:
        """Cost and time of moving ``size_bytes`` between back-end and cache.

        This is the ``fn * (l + S/t) + S * cb`` tail of Eqs. 9 and 12: the
        CPU spent managing the transfer plus the bandwidth charge.
        """
        if size_bytes < 0:
            raise PlanningError(f"size_bytes must be non-negative, got {size_bytes}")
        config = self._config
        transfer_time = config.network_latency_s + size_bytes / config.network_throughput_bps
        cpu_seconds = config.network_cpu_fraction * transfer_time
        cpu_dollars = cpu_seconds * config.pricing.cpu_second
        network_dollars = size_bytes * config.pricing.network_byte
        return ExecutionEstimate(
            cost_units=0.0,
            io_operations=0.0,
            cpu_seconds=cpu_seconds,
            network_bytes=float(size_bytes),
            response_time_s=transfer_time,
            cpu_dollars=cpu_dollars,
            io_dollars=0.0,
            network_dollars=network_dollars,
        )

    # -- internals ---------------------------------------------------------------

    def _processed_bytes(self, query: Query, index: Optional[CachedIndex]) -> float:
        """Bytes the plan reads and processes inside the cache."""
        if query is not self._scan_query:
            self._scan_query = query
            self._scan_bytes = float(query.scanned_bytes(self._estimator))
        full_scan_bytes = self._scan_bytes
        if index is None:
            return full_scan_bytes

        served = self._index_served_selectivity(query, index)
        if served is None:
            # The index does not match any predicate of this query; probing it
            # would only add work, so fall back to the full scan.
            return full_scan_bytes

        config = self._config
        probe_bytes = config.index_probe_fraction * index.size_bytes(
            self._estimator.schema
        )
        data_fraction = min(1.0, served * config.index_random_access_penalty)
        data_bytes = data_fraction * full_scan_bytes
        return min(full_scan_bytes, probe_bytes + data_bytes)

    def _index_served_selectivity(self, query: Query,
                                  index: CachedIndex) -> Optional[float]:
        """Combined selectivity of the query predicates the index can serve.

        A B-tree style index serves the predicates on its key prefix: the
        leading column always, and subsequent key columns only as long as the
        preceding key columns are also predicated (equality or range).
        Returns ``None`` if the index serves nothing.
        """
        if index.table_name != query.table_name:
            return None
        predicates_by_column = {
            predicate.column_name: predicate
            for predicate in query.predicates
            if predicate.table_name == query.table_name
        }
        served: list = []
        for column_name in index.column_names:
            predicate = predicates_by_column.get(column_name)
            if predicate is None:
                break
            served.append(predicate)
            if predicate.kind is PredicateKind.RANGE:
                # A range predicate ends prefix usability.
                break
        if not served:
            return None
        return self._estimator.conjunction_selectivity(
            predicate.resolved_selectivity(self._estimator) for predicate in served
        )
