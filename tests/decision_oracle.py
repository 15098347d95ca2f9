"""The economy's per-query rules as the engines wrote them before
:mod:`repro.economy.decisions` existed, kept as the oracle that
``tests/test_economy_decisions.py`` checks the pure functions against.

Each function is the body of one former engine step, with the engine's
state turned into arguments: the cache's ownership and remote answers,
the provider and tenant regret books, and the build-cost function.
"""

from dataclasses import replace
from typing import Dict, List, Tuple

from repro.economy.pricing import PricedPlan
from repro.planner.plan import PlanKind
from repro.structures.cached_index import CachedIndex


def ensure_existing_plan(priced, skyline):
    """``EconomyEngine._ensure_existing_plan``."""
    if any(plan.is_existing for plan in skyline):
        return skyline
    existing = [plan for plan in priced if plan.is_existing]
    if not existing:
        return skyline
    cheapest = min(existing, key=lambda plan: plan.price)
    return skyline + [cheapest]


def budget_reference(priced):
    """The reference plan ``EconomyEngine._budget_for`` offered against."""
    backend = [plan for plan in priced
               if plan.plan.kind is PlanKind.BACKEND]
    if backend:
        return backend[0]
    return min(
        (plan for plan in priced if plan.is_existing),
        key=lambda plan: plan.price,
        default=priced[0],
    )


def distribute_regret_plain(regret_tracker, tenant_books, tenant_id,
                            regrets, divide):
    """``EconomyEngine._distribute_regret``."""
    for missing, regret in regrets:
        if not missing:
            continue
        regret_tracker.distribute(missing, regret, divide=divide)
        if tenant_books is not None:
            tenant_books.record_regret(tenant_id, missing, regret,
                                       divide=divide)


def distribute_regret_partitioned(regret_tracker, tenant_books, tenant_id,
                                  regrets, divide, owns, remote,
                                  foreign_regret):
    """``PartitionedEconomyEngine._distribute_regret``; ``remote(key)``
    stood for ``_remote_surcharge(key) is not None``."""
    for missing, regret in regrets:
        missing = tuple(structure for structure in missing
                        if not remote(structure.key))
        if not missing:
            continue
        share = regret / len(missing) if divide else regret
        owned = [structure for structure in missing
                 if owns(structure.key)]
        regret_tracker.distribute(owned, share, divide=False)
        if tenant_books is not None:
            tenant_books.record_regret(tenant_id, missing, regret,
                                       divide=divide)
        for structure in missing:
            if owns(structure.key):
                continue
            previous = foreign_regret.get(structure.key)
            amount = (previous[1] if previous is not None else 0.0) + share
            foreign_regret[structure.key] = (structure, amount)


def build_plan(structure, available, owns, build_cost, spot):
    """The ``(piece, spot cost)`` plan of ``_build_structure`` (both
    engines: the partitioned guard, then the base plan); empty when the
    partitioned engine refused the build."""
    if not owns(structure.key):
        return []
    if isinstance(structure, CachedIndex):
        for column in structure.required_columns():
            if column.key in available:
                continue
            if not owns(column.key):
                return []
    plan: List[Tuple[object, float]] = []
    cached_columns = set(available)
    if isinstance(structure, CachedIndex):
        for column in structure.required_columns():
            if column.key not in cached_columns:
                plan.append((column, build_cost(column, cached_columns) * spot))
                cached_columns.add(column.key)
        plan.append((structure, build_cost(structure, cached_columns) * spot))
    else:
        plan.append((structure, build_cost(structure, cached_columns) * spot))
    return plan


def apply_remote(priced, surcharge_of):
    """``PartitionedEconomyEngine._apply_remote``."""
    remote = []
    local_new = []
    for structure in priced.new_structures:
        surcharge = surcharge_of(structure.key)
        if surcharge is None:
            local_new.append(structure)
        else:
            remote.append((structure, surcharge))
    if not remote:
        return priced

    dollars = seconds = shipped = 0.0
    for _, (access_dollars, access_seconds, access_bytes) in remote:
        dollars += access_dollars
        seconds += access_seconds
        shipped += access_bytes
    execution = priced.plan.execution
    execution = replace(
        execution,
        network_bytes=execution.network_bytes + shipped,
        network_dollars=execution.network_dollars + dollars,
        response_time_s=execution.response_time_s + seconds,
    )
    plan = replace(priced.plan, execution=execution)
    remote_keys = {structure.key for structure, _ in remote}
    amortized_by_structure: Dict[str, float] = {
        key: charge
        for key, charge in priced.amortized_by_structure.items()
        if key not in remote_keys
    }
    return PricedPlan(
        plan=plan,
        execution_dollars=plan.execution_dollars,
        amortized_dollars=sum(amortized_by_structure.values()),
        maintenance_dollars=priced.maintenance_dollars,
        new_structures=tuple(local_new),
        amortized_by_structure=amortized_by_structure,
    )
