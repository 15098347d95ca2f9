"""Scheme resilience under market shocks: paired baseline/shocked cells.

For every scheme the runner replays the identical populated workload
twice — once clean, once with the configured shock sequence injected —
and reports how much each headline metric degraded. The shocked run is
additionally audited for **bitwise** conservation, reusing the fold
identities the distributed layers pin:

* provider side — the provider account's ``query_payment`` deposits fold
  to exactly the total the query outcomes charged (the engine deposits
  ``outcome.charge`` per query, in processing order, so the two folds
  add the same floats in the same order);
* wallet side — every tenant wallet's balance folds bitwise from its own
  ledger (no money appears or vanishes outside the recorded
  transactions).

Shocks move *state* (structures destroyed, prices scaled, budgets
squeezed), never money: a run whose audit is not exact is a bug, not a
tolerance problem.

``run_shock_resilience`` fans cells over worker processes exactly like
:func:`repro.experiments.tenants.run_tenant_experiment` — each cell is
deterministic, so the parallel tables are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

# ledger_fold stays a module global here: benchmarks/e2e times it.
from repro.economy.account import (ledger_fold, outcome_charge_fold,
                                   query_payment_fold)
from repro.errors import ExperimentError, map_naming_failures
from repro.experiments.reporting import format_table
# sorted_breakdowns stays importable here: benchmarks/e2e times it.
from repro.experiments.tenants import (  # noqa: F401
    TenantCell,
    TenantCellResult,
    TenantExperimentConfig,
    cell_label,
    run_tenant_cell,
    sorted_breakdowns,
)


@dataclass(frozen=True)
class ConservationAudit:
    """Bitwise conservation evidence from one shocked cell.

    ``query_payments`` and ``outcome_charges`` are the provider-side and
    tenant-side folds of the same money stream, computed independently;
    ``wallets_audited`` counts the wallet ledgers actually folded (a
    streamed registry folds each wallet churn drops, so a tenant that
    churns twice is folded twice), and ``wallet_ledger_mismatches``
    counts those whose balance did not fold bitwise from their own
    ledger (always 0 on a passing run).
    """

    query_payments: float
    outcome_charges: float
    wallets_audited: int
    wallet_ledger_mismatches: int

    @property
    def exact(self) -> bool:
        """Whether every conservation identity held bitwise."""
        return (self.query_payments == self.outcome_charges
                and self.wallet_ledger_mismatches == 0)


@dataclass(frozen=True)
class SchemeResilience:
    """One scheme's paired clean/shocked cells plus the shocked audit."""

    baseline: TenantCellResult
    shocked: TenantCellResult
    audit: Optional[ConservationAudit]

    @property
    def scheme(self) -> str:
        """The scheme both cells ran."""
        return self.shocked.config.scheme

    @property
    def cost_ratio(self) -> float:
        """Shocked operating cost over baseline (1.0 = unaffected)."""
        base = self.baseline.summary.operating_cost
        if base == 0.0:
            return float("inf") if self.shocked.summary.operating_cost else 1.0
        return self.shocked.summary.operating_cost / base


def baseline_config(config: TenantExperimentConfig) -> TenantExperimentConfig:
    """The clean twin of a shocked cell: same population, chaos stripped.

    Shocks and the strict-maintenance shutdown policy are the fault
    knobs; everything else — tiers included, they shape the population
    itself — stays, so the pair differs only by the injected faults.
    """
    return replace(config, shocks=(), strict_maintenance=False)


def audited_shock_cell(
        config: TenantExperimentConfig,
        trace=None, metrics=None,
) -> Tuple[TenantCellResult, Optional[ConservationAudit]]:
    """Run one shocked cell and audit conservation on the live engine.

    Runs the shared :class:`~repro.experiments.tenants.TenantCell`
    assembly (so the cell result is bitwise the one
    :func:`~repro.experiments.tenants.run_tenant_cell` returns, in either
    arrival mode) but keeps the scheme in hand so the provider account,
    outcomes, and wallet ledgers can be folded before they are thrown
    away. The bypass baseline has no economy, so its audit is ``None``.
    ``trace``/``metrics`` attach under the zero-perturbation contract.
    """
    cell = TenantCell(config)
    result = cell.run(trace=trace, metrics=metrics)

    audit: Optional[ConservationAudit] = None
    registry = cell.registry
    if registry is not None:
        engine = cell.scheme.engine
        banked = query_payment_fold(engine.account)
        charged = outcome_charge_fold(engine.outcomes)
        # The wallets still held are folded here; a streamed registry
        # folded the ones churn dropped as it dropped them.
        states = registry.states()
        mismatches = sum(
            1 for state in states
            if ledger_fold(state.account) != state.account.credit
        )
        audit = ConservationAudit(
            query_payments=banked,
            outcome_charges=charged,
            wallets_audited=len(states) + registry.churned_ledgers_folded,
            wallet_ledger_mismatches=(
                mismatches + registry.churned_ledger_mismatches),
        )
    return cell.outcome(result), audit


def _resilience_pair(config: TenantExperimentConfig,
                     trace=None, metrics=None) -> SchemeResilience:
    """Worker entry point: one scheme's clean + shocked + audit.

    The clean twin runs unobserved — the recorders describe the *faulted*
    replay, which is the one the resilience table and the conservation
    audit interrogate.
    """
    clean = run_tenant_cell(baseline_config(config))
    shocked, audit = audited_shock_cell(config, trace=trace,
                                        metrics=metrics)
    return SchemeResilience(baseline=clean, shocked=shocked, audit=audit)


def run_shock_resilience(configs: Sequence[TenantExperimentConfig],
                         jobs: Optional[int] = None,
                         trace=None,
                         metrics=None) -> List[SchemeResilience]:
    """Run paired clean/shocked cells for every config (typically one per
    scheme), optionally fanned over worker processes.

    Args:
        configs: the *shocked* cells (their ``shocks`` field is the fault
            sequence; the clean twin is derived with
            :func:`baseline_config`).
        jobs: worker processes; ``None`` or 1 runs sequentially. Each
            pair is deterministic, so the parallel results are
            byte-identical and come back in ``configs`` order.
        trace: optional :class:`~repro.obs.trace.TraceRecorder` recording
            the shocked cells (the clean twins stay unobserved); observed
            runs execute sequentially so records land in one recorder —
            the results are byte-identical either way.
        metrics: optional :class:`~repro.obs.metrics.MetricsTimeseries`
            sampled at the shocked cells' settlement barriers, same
            contract.
    """
    cells = list(configs)
    if not cells:
        raise ExperimentError("at least one shocked cell is required")
    for config in cells:
        if not config.shocks and not config.strict_maintenance:
            raise ExperimentError(
                f"cell for scheme {config.scheme!r} injects no faults "
                f"(no shocks, strict_maintenance off); a resilience pair "
                f"needs at least one"
            )
    worker_count = 1 if jobs is None else int(jobs)
    if worker_count < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    if trace is not None or metrics is not None:
        return [_resilience_pair(config, trace=trace, metrics=metrics)
                for config in cells]
    if worker_count == 1 or len(cells) == 1:
        return [_resilience_pair(config) for config in cells]
    return map_naming_failures(_resilience_pair, cells, worker_count,
                               cell_label, ExperimentError)


# -- tables --------------------------------------------------------------------


def _conservation_cell(audit: Optional[ConservationAudit]) -> str:
    if audit is None:
        return "n/a"
    if audit.exact:
        return "exact"
    return f"VIOLATED ({audit.query_payments!r} != {audit.outcome_charges!r})"


def shock_resilience_table(results: Sequence[SchemeResilience]) -> str:
    """The scheme-resilience table: clean versus shocked, one row per scheme.

    The conservation column is the shocked run's bitwise audit — any
    value other than ``exact`` (or ``n/a`` for the economy-less bypass
    baseline) is a correctness failure, not noise.
    """
    headers = ["scheme", "cost", "cost+shocks", "cost x", "hit", "hit+shocks",
               "p95_s+shocks", "evictions+shocks", "conservation"]
    rows: List[List[object]] = []
    for item in results:
        base, shocked = item.baseline.summary, item.shocked.summary
        rows.append([
            item.scheme,
            base.operating_cost,
            shocked.operating_cost,
            item.cost_ratio,
            base.cache_hit_rate,
            shocked.cache_hit_rate,
            shocked.p95_response_time_s,
            shocked.evictions,
            _conservation_cell(item.audit),
        ])
    return format_table(headers, rows,
                        title="Scheme resilience under market shocks")
