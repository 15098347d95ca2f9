"""The end-to-end benchmark's workloads.

Each workload is one call into the public ``repro`` API, built only from
the benchmark's seed, and returns the text whose sha256 is the run's
fidelity digest: the rendered per-tenant tables of a tenant cell, or the
summary of the single-tenant run. Why each workload exists, and which
layer metrics it should move, is recorded in ``README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro import CloudSystem, DistCacheRunner, ShardCoordinator
from repro import WorkloadGenerator, WorkloadSpec, run_scheme
from repro.economy.engine import PLANNING_BATCHED, PLANNING_SCALAR
from repro.experiments.shocks import audited_shock_cell
from repro.experiments.tenants import (
    TenantCellResult,
    TenantExperimentConfig,
    run_tenant_cell,
    tenant_aggregate_table,
    top_tenant_table,
)
from repro.workload.grammar import (
    InvalidationShock,
    ScenarioGrammar,
    default_shock_grammar,
)

#: Process budget of the parallel workloads: the benchmark machine has
#: two cores, and one process drives the load.
POOL_WORKERS = 2

#: Population size of ``population-sharded2`` per query of the run.
TENANTS_PER_QUERY = 50


class AuditError(RuntimeError):
    """A run finished but its conservation audit was not exact."""


def _tables(cell: TenantCellResult) -> str:
    return tenant_aggregate_table(cell) + "\n" + top_tenant_table(cell)


def tenant_config(seed: int, queries: int, planning: str,
                  **extra) -> TenantExperimentConfig:
    """The canonical multi-tenant cell shared by three workloads."""
    return TenantExperimentConfig(
        scheme="econ-cheap", tenant_count=1000, query_count=queries,
        interarrival_s=1.0, churn_period=500, settlement_period_s=60.0,
        planning=planning, seed=seed, **extra)


def shock_grammar() -> ScenarioGrammar:
    """The stock shock grammar plus an invalidation every 5 % of the run.

    The extra shocks alternate between index-only and total invalidation,
    so plan tables and pricing memos are rebuilt again and again.
    """
    extra = tuple(
        InvalidationShock(at_fraction=round(0.05 * step, 2),
                          predicate="index" if step % 2 else "")
        for step in range(1, 20))
    return default_shock_grammar() | ScenarioGrammar(shocks=extra)


def paper_scalar(seed: int, queries: int, planning: str,
                 workers: int) -> str:
    workload = WorkloadGenerator(WorkloadSpec(
        query_count=queries, interarrival_s=1.0, seed=seed)).generate()
    result = run_scheme(CloudSystem().scheme("econ-cheap"), workload)
    return repr(result.summary)


def tenants_batched(seed: int, queries: int, planning: str,
                    workers: int) -> str:
    return _tables(run_tenant_cell(tenant_config(seed, queries, planning)))


def shocks_batched(seed: int, queries: int, planning: str,
                   workers: int) -> str:
    grammar = shock_grammar()
    cell, audit = audited_shock_cell(tenant_config(
        seed, queries, planning, shocks=grammar.shocks,
        tenant_tiers=grammar.tiers, grammar=grammar,
        strict_maintenance=True))
    if audit is None or not audit.exact:
        raise AuditError(f"conservation audit not exact: {audit!r}")
    return _tables(cell)


def population_sharded2(seed: int, queries: int, planning: str,
                        workers: int) -> str:
    # Every tenant arrives once on every shard, so the population, not the
    # query count, sets most of the cost; it scales with the run length.
    report = ShardCoordinator(2, max_workers=workers).run_cell(
        TenantExperimentConfig(
            tenant_count=TENANTS_PER_QUERY * queries, query_count=queries,
            churn_period=1000,
            settlement_period_s=600.0, arrival_mode="streamed",
            planning=planning, seed=seed))
    return _tables(report.cell)


def tenants_partitioned2(seed: int, queries: int, planning: str,
                         workers: int) -> str:
    report = DistCacheRunner(
        2, max_workers=workers, placement="hash",
        compare_baseline=False).run_cell(
            tenant_config(seed, queries, planning))
    return _tables(report.cell)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: the name in ``BENCHMARK.json``.
        run: ``run(seed, queries, planning, workers)`` executes the
            workload and returns the rendered output that is digested.
        queries: queries per repetition at benchmark size.
        smoke_queries: queries per repetition in the smoke test.
        planning: the planning mode measured; fidelity pins come from the
            scalar twin, so a pinned batched run also checks scalar ==
            batched.
        parallel: whether the workload runs a process pool, and so is
            traced both inline and pooled.
    """

    name: str
    run: Callable[[int, int, str, int], str]
    queries: int
    smoke_queries: int
    planning: str = PLANNING_SCALAR
    parallel: bool = False


WORKLOADS: Dict[str, Workload] = {item.name: item for item in (
    Workload("paper-scalar", paper_scalar, queries=3_000,
             smoke_queries=200),
    Workload("tenants-batched", tenants_batched, queries=12_000,
             smoke_queries=400, planning=PLANNING_BATCHED),
    Workload("shocks-batched", shocks_batched, queries=9_000,
             smoke_queries=400, planning=PLANNING_BATCHED),
    Workload("population-sharded2", population_sharded2, queries=1_000,
             smoke_queries=100, parallel=True),
    Workload("tenants-partitioned2", tenants_partitioned2, queries=1_000,
             smoke_queries=200, planning=PLANNING_BATCHED, parallel=True),
)}
