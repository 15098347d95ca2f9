"""The library's scalar, eager and sharded paths as oracles for the CLI's
tenant cells.

``tenants`` and ``shocks`` run every cell in one process over the
streamed population and plan batched (scalar under ``--placement
adaptive``). Each shape's stdout must equal the same cells rendered from
library runs built with ``planning="scalar"`` and
``arrival_mode="eager"`` and, where marked, from
``ShardCoordinator(2).run_cell(config).cell``.
"""

import pytest

from repro import cli
from repro.experiments.tenants import (
    TenantExperimentConfig,
    tenant_aggregate_table,
    top_tenant_table,
)
from repro.sharding import ShardCoordinator
from repro.workload.grammar import (
    ScenarioGrammar,
    default_shock_grammar,
    parse_shock,
)

FIDELITY = ("tenants --n-tenants 50 --queries 300 --schemes econ-cheap "
            "--churn-period 60 --settlement-period 200 --budget-sigma 0.3")
INVALIDATE = ("shocks --schemes econ-cheap --n-tenants 12 --queries 60 "
              "--interarrival 5 --settlement-period 25 --strict-maintenance "
              "--shock squeeze@0.6:0.2:0.5 --shock invalidate@0.5")
SMALL = "tenants --n-tenants 24 --queries 80 --schemes econ-cheap"
SHOCKS = ("invalidate@0.5:index", "price@0.6:0.2:2.0")
GRAMMAR = default_shock_grammar() | ScenarioGrammar(
    shocks=(parse_shock("squeeze@0.6:0.2:0.5"), parse_shock("invalidate@0.5")))


def _oracle(**fields):
    """A library cell built on the scalar planner and eager arrivals."""
    return TenantExperimentConfig(planning="scalar", arrival_mode="eager",
                                  **fields)


FIDELITY_CELL = _oracle(tenant_count=50, query_count=300, churn_period=60,
                        settlement_period_s=200.0, budget_sigma=0.3)
SHOCK_CELL = _oracle(tenant_count=12, query_count=60, interarrival_s=5.0,
                     settlement_period_s=25.0, strict_maintenance=True,
                     shocks=GRAMMAR.shocks, tenant_tiers=GRAMMAR.tiers,
                     grammar=GRAMMAR)

#: name -> (argv, oracle cell, whether the sharded run must match too).
SHAPES = {
    "fidelity": (FIDELITY, FIDELITY_CELL, True),
    **{f"fidelity-partitioned-jobs{jobs}": (
        f"{FIDELITY} --cache-partitions 2 --jobs {jobs}", FIDELITY_CELL,
        False) for jobs in (1, 2)},
    "small": (SMALL, _oracle(tenant_count=24, query_count=80), True),
    "small-churn": (SMALL + " --churn-period 20 --budget-sigma 0.3",
                    _oracle(tenant_count=24, query_count=80, churn_period=20,
                            budget_sigma=0.3), True),
    "tenants-shocks": (
        SMALL + "".join(f" --shock {spec}" for spec in SHOCKS),
        _oracle(tenant_count=24, query_count=80,
                shocks=tuple(map(parse_shock, SHOCKS))), True),
    "bulk-lifecycle": (
        "tenants --n-tenants 20000 --queries 400 --churn-period 100 "
        "--schemes econ-cheap",
        _oracle(tenant_count=20000, query_count=400, churn_period=100), True),
    "shocks-invalidate": (INVALIDATE, SHOCK_CELL, False),
    "shocks-invalidate-partitioned": (
        INVALIDATE + " --cache-partitions 2 --placement hash", SHOCK_CELL,
        False),
}


def _library(argv, config):
    """The command's own sections, rendered over the oracle cell."""
    args = cli.build_parser().parse_args(argv)
    cli._resolve_scaling(args)
    render = (cli._shocks_sections if args.command == "shocks"
              else cli._tenants_sections)
    return "\n\n".join(render(args, [config], None)) + "\n"


@pytest.mark.parametrize("name", list(SHAPES))
def test_cli_prints_the_scalar_eager_tables(capsys, name):
    command, config, sharded = SHAPES[name]
    argv = command.split()
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    assert printed == _library(argv, config)
    if sharded:
        cell = ShardCoordinator(2).run_cell(config).cell
        assert printed == (tenant_aggregate_table(cell) + "\n\n"
                           + top_tenant_table(cell) + "\n")
