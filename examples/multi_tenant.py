"""Multi-tenant economy: 100 tenants with their own wallets and budgets.

Run with::

    python examples/multi_tenant.py

The script generates a short workload, assigns a Zipf-skewed population of
100 tenants to it (with one mid-run churn wave schedule), runs the
econ-cheap scheme with a tenant-aware economy, and prints per-tenant budget
outcomes: who issued the traffic, who got served from the cache, and what
each wallet looks like at the end of the run.
"""

from __future__ import annotations

import _bootstrap  # noqa: F401  (makes src/ importable as a script)

from repro import CloudSystem, WorkloadGenerator, WorkloadSpec
from repro.economy.tenancy import TenantRegistry
from repro.policies.economic import EconomicSchemeConfig
from repro.simulator.metrics import breakdown_by_tenant
from repro.simulator.simulation import CloudSimulation, SimulationConfig
from repro.workload.population import (
    GenerativeProfileSource,
    PopulationSpec,
    TenantPopulation,
)


def main() -> None:
    workload = WorkloadGenerator(
        WorkloadSpec(query_count=600, interarrival_s=10.0, seed=11)
    ).generate()

    spec = PopulationSpec(
        tenant_count=100,
        zipf_exponent=1.1,
        initial_credit=25.0,
        churn_period=200,       # one wave every 200 queries
        churn_fraction=0.05,
        seed=11,
    )
    populated = TenantPopulation(spec).populate(workload)
    print(f"{len(populated.queries)} queries from "
          f"{populated.tenant_count} tenants "
          f"({populated.churn_waves} churned mid-run)")

    # Each tenant's profile derives from the population spec on demand:
    # a wallet exists from the tenant's first query until it churns.
    registry = TenantRegistry(GenerativeProfileSource(spec))
    system = CloudSystem()
    scheme = system.scheme(
        "econ-cheap", economic_config=EconomicSchemeConfig(tenants=registry)
    )
    result = CloudSimulation(scheme, SimulationConfig()).run(
        populated.queries, tenant_lifecycle=populated.lifecycle
    )

    summary = result.summary
    print()
    print(f"Scheme:             {summary.scheme_name}")
    print(f"Operating cost:     ${summary.operating_cost:,.2f}")
    print(f"Overall hit rate:   {summary.cache_hit_rate:.0%}")
    print(f"User charges:       ${summary.total_charge:,.2f}")
    print(f"Provider credit:    ${scheme.engine.account.credit:,.2f}")
    print(f"Wallets remaining:  ${registry.total_credit():,.2f} "
          f"(of ${25.0 * populated.tenant_count:,.2f} deposited)")

    breakdowns = sorted(
        breakdown_by_tenant(result.steps).values(),
        key=lambda item: (-item.query_count, item.tenant_id),
    )
    wallets = registry.wallets()
    print()
    print("Top 10 tenants by traffic (per-tenant budget outcomes):")
    print(f"  {'tenant':8s} {'queries':>7s} {'hit rate':>8s} "
          f"{'charged':>9s} {'wallet':>9s}")
    for item in breakdowns[:10]:
        print(f"  {item.tenant_id:8s} {item.query_count:7d} "
              f"{item.cache_hit_rate:8.0%} "
              f"${item.total_charge:8.2f} "
              f"${wallets.credit_of(item.tenant_id):8.2f}")

    quiet = [item for item in breakdowns if item.query_count == 1]
    print()
    print(f"Long tail: {len(quiet)} tenants issued exactly one query; "
          f"{populated.tenant_count - len(breakdowns)} issued none.")


if __name__ == "__main__":
    main()
