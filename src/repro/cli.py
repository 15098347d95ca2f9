"""Command-line interface.

Exposes the experiment drivers without writing any Python::

    python -m repro.cli figure4 --profile quick --jobs 4
    python -m repro.cli figure5 --profile paper
    python -m repro.cli headline
    python -m repro.cli ablation regret
    python -m repro.cli scenario --arrival diurnal --scheme econ-cheap
    python -m repro.cli scenario --arrival shocks --settlement-period 300
    python -m repro.cli tenants --n-tenants 100 --jobs 4
    python -m repro.cli tenants --cache-partitions 4 --settlement-period 60
    python -m repro.cli shocks --schemes all --strict-maintenance
    python -m repro.cli shocks --cache-partitions 2 --placement adaptive
    python -m repro.cli describe

Every subcommand prints a plain-text table to stdout. ``--jobs N`` fans
independent cells out over N worker processes (grid cells for the figure
commands, scheme cells for ``tenants`` and ``shocks``, observed or not);
the tables and ``--trace``/``--metrics`` artifacts are byte-identical to
the sequential run. ``scenario`` replays one scheme under a
scenario-diverse arrival regime. ``tenants`` runs schemes over a
Zipf-skewed, churning N-tenant population and reports per-tenant
credit/hit-rate aggregates; ``shocks`` replays the adversarial grammar
clean and shocked per scheme, with a bitwise conservation audit of the
shocked run. The two share one front end: each cell runs in one
process, reading its population stream as the run goes, and
``--cache-partitions N`` partitions the *cache and provider economy*
(:mod:`repro.distcache`) — explicitly different semantics, with
per-partition, divergence and (under ``--placement adaptive``) placement
sections; ``shocks`` reruns its shocked cells partitioned. Every command
plans in batches, the library default, except under ``--placement
adaptive``: a handoff moves a structure without bumping the cache
version the batched pricing memo keys on, so those cells plan scalar.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
import warnings
from typing import List, Optional, Sequence

from repro import __version__
from repro.distcache import (
    PLACEMENT_MODES,
    DistCacheRunner,
    PartitionImbalanceWarning,
    distcache_divergence_table,
    distcache_partition_table,
    distcache_placement_table,
)
from repro.economy.account import audit_conservation, render_conservation
from repro.economy.engine import (
    PLANNING_BATCHED,
    PLANNING_SCALAR,
    EconomyConfig,
)
from repro.errors import ReproError
from repro.policies.economic import EconomicSchemeConfig

from repro.experiments.ablations import (
    ABLATION_HEADERS,
    amortization_ablation,
    bypass_budget_ablation,
    locality_ablation,
    regret_fraction_ablation,
)
from repro.experiments.config import (
    BENCH_PROFILE,
    PAPER_PROFILE,
    QUICK_PROFILE,
    ExperimentProfile,
)
from repro.experiments.figure4 import figure4_table
from repro.experiments.figure5 import figure5_table
from repro.experiments.headline import headline_table
from repro.experiments.reporting import format_table
from repro.experiments.runner import run_grid
from repro.experiments.shocks import run_shock_resilience, shock_resilience_table
from repro.experiments.tenants import (
    ARRIVAL_STREAMED,
    TenantExperimentConfig,
    run_tenant_experiment,
    tenant_aggregate_table,
    top_tenant_table,
)
from repro.obs import (
    TraceRecorder,
    attach_observability,
    build_manifest,
    write_report_artifacts,
)
from repro.policies.factory import SCHEME_NAMES
from repro.simulator.simulation import CloudSimulation, SimulationConfig
from repro.system import CloudSystem
from repro.workload.grammar import (
    GrammarDegeneracyWarning,
    ScenarioGrammar,
    compile_shock_events,
    default_shock_grammar,
    parse_query_class,
    parse_shock,
)
from repro.workload.scenarios import SCENARIO_NAMES, build_scenario

_PROFILES = {
    "quick": QUICK_PROFILE,
    "bench": BENCH_PROFILE,
    "paper": PAPER_PROFILE,
}

_ABLATIONS = {
    "regret": (regret_fraction_ablation,
               "Ablation A1 - regret fraction a (Eq. 3)"),
    "amortization": (amortization_ablation,
                     "Ablation A2 - amortisation horizon n (Eq. 7)"),
    "locality": (locality_ablation,
                 "Ablation A3 - workload temporal locality"),
    "bypass-budget": (bypass_budget_ablation,
                      "Ablation A4 - bypass cache budget"),
}


def _int_at_least(minimum: int, text: str) -> int:
    """Parse an integer flag that must be >= ``minimum``.

    Raising :class:`argparse.ArgumentTypeError` makes argparse print a
    friendly ``error: argument --jobs: ...`` line and exit with code 2,
    instead of a traceback from deep inside an experiment driver.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
    return value


def _jsonl_path(text: str) -> str:
    """Argparse type for ``report``'s artifacts: a ``*.jsonl`` path, the
    suffix ``--trace``/``--metrics`` artifacts carry."""
    if not text.endswith(".jsonl"):
        raise argparse.ArgumentTypeError(
            f"not a .jsonl trace or metrics artifact: {text!r}")
    return text


def _positive_int(text: str) -> int:
    """Argparse type for ``--jobs``/``--cache-partitions``."""
    return _int_at_least(1, text)


def _nonnegative_int(text: str) -> int:
    """Argparse type for ``--top`` (``0`` lists no tenant) and ``--seed``."""
    return _int_at_least(0, text)


def _finite_float(text: str) -> float:
    """Argparse type for the float flags: a finite float (NaN fails every
    range check, so ``nan`` would otherwise run with the flag ignored)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def _nonnegative_float(text: str) -> float:
    """Argparse type for ``--handoff-threshold``: a float >= 0.

    Exit-2 validated like the other numeric flags (``--jobs``,
    ``--cache-partitions``): argparse prints a friendly
    ``error: argument --handoff-threshold: ...`` line instead of a
    traceback from inside the experiment driver.
    """
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    # `not >=` rather than `<`: NaN fails every comparison, so a plain
    # `< 0` check would wave `--handoff-threshold nan` through and every
    # hysteresis comparison downstream would silently be False.
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _shock_spec(text: str):
    """Argparse type for ``--shock``: the grammar's shock DSL, exit-2
    validated (``invalidate@FRAC[:PREDICATE]``, ``price@FRAC:DUR:FACTOR``,
    ``squeeze@FRAC:DUR:FACTOR``)."""
    try:
        return parse_shock(text)
    except ReproError as error:
        raise argparse.ArgumentTypeError(str(error))


def _query_class_spec(text: str):
    """Argparse type for ``--class``: ``NAME:WEIGHT:TPL1+TPL2``, exit-2
    validated (template names are checked eagerly)."""
    try:
        return parse_query_class(text)
    except ReproError as error:
        raise argparse.ArgumentTypeError(str(error))


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for the ``repro`` command-line interface."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'An Economic Model for Self-Tuned Cloud Caching'",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
            ("figure4", "operating cost per scheme per inter-arrival time"),
            ("figure5", "average response time per scheme per inter-arrival time"),
            ("headline", "Section VII-B claims, paper versus measured")):
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--profile", choices=sorted(_PROFILES), default="quick",
                         help="experiment profile (default: quick)")
        sub.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                         help="worker processes for the grid cells "
                              "(default: 1, sequential)")
        # Only --trace/--force here: the figure drivers' --profile is the
        # experiment profile, so the cProfile flag stays off these.
        _add_trace_arguments(sub, full=False)

    ablation = subparsers.add_parser("ablation", help="run one ablation sweep")
    ablation.add_argument("which", choices=sorted(_ABLATIONS))
    ablation.add_argument("--queries", type=int, default=400,
                          help="queries per sweep point (default: 400)")

    scenario = subparsers.add_parser(
        "scenario",
        help="run one scheme under a scenario-diverse arrival regime")
    scenario.add_argument("--arrival", choices=SCENARIO_NAMES, default="diurnal",
                          help="arrival scenario (default: diurnal)")
    scenario.add_argument("--scheme", choices=SCHEME_NAMES, default="econ-cheap",
                          help="caching scheme (default: econ-cheap)")
    _add_run_arguments(scenario)
    scenario.add_argument("--failure-check-period", type=_finite_float,
                          default=None, metavar="S",
                          help="fire a scheduled structure-failure check every "
                               "S simulated seconds")
    _add_trace_arguments(scenario)

    tenants = subparsers.add_parser(
        "tenants",
        help="run schemes over a Zipf-skewed N-tenant population")
    _add_cell_arguments(tenants, n_tenants=100)
    tenants.add_argument("--zipf", type=_finite_float, default=1.1, metavar="S",
                         help="Zipf exponent of tenant activity (default: 1.1; "
                              "0 = uniform)")
    tenants.add_argument("--initial-credit", type=_finite_float, default=50.0,
                         metavar="D",
                         help="seed credit of every tenant wallet (default: 50)")
    tenants.add_argument("--budget-sigma", type=_finite_float, default=0.0,
                         metavar="SIGMA",
                         help="lognormal sigma of per-tenant budget "
                              "multipliers (default: 0, uniform budgets)")
    tenants.add_argument("--churn-period", type=int, default=0, metavar="Q",
                         help="replace part of the population every Q queries "
                              "(default: 0, no churn)")
    tenants.add_argument("--churn-fraction", type=_finite_float, default=0.1,
                         metavar="F",
                         help="fraction of tenants replaced per churn wave "
                              "(default: 0.1)")
    tenants.add_argument("--top", type=_nonnegative_int, default=10,
                         metavar="K",
                         help="busiest tenants to list individually "
                              "(default: 10)")
    _add_trace_arguments(tenants)

    shocks = subparsers.add_parser(
        "shocks",
        help="adversarial grammar: clean vs shocked cells per scheme, "
             "with a bitwise conservation audit")
    _add_cell_arguments(shocks, n_tenants=50)
    shocks.add_argument("--class", type=_query_class_spec, action="append",
                        default=[], dest="query_class", metavar="SPEC",
                        help="extra query class NAME:WEIGHT:TPL1+TPL2 "
                             "composed onto the stock grammar (repeatable; "
                             "WEIGHT 0 is dropped with a warning)")
    _add_trace_arguments(shocks)

    report = subparsers.add_parser(
        "report",
        help="summarize --trace/--metrics JSONL artifacts into versioned "
             "report artifacts")
    report.add_argument("artifacts", nargs="+", type=_jsonl_path,
                        metavar="PATH",
                        help="*.jsonl trace or metrics artifacts to "
                             "summarize; an unreadable one degrades to a "
                             "warning, never a crash")
    report.add_argument("--out", default="report-artifacts", metavar="DIR",
                        help="directory receiving report.json, report.md "
                             "and report.manifest.json (default: "
                             "report-artifacts)")
    report.add_argument("--force", action="store_true",
                        help="overwrite existing report artifacts")

    subparsers.add_parser("describe", help="print the simulated schema and defaults")
    return parser


def _add_run_arguments(sub: argparse.ArgumentParser) -> None:
    """The workload, settlement and shock flags of ``scenario``,
    ``tenants`` and ``shocks``."""
    sub.add_argument("--queries", type=int, default=400,
                     help="queries to simulate (default: 400)")
    sub.add_argument("--interarrival", type=_finite_float, default=10.0,
                     help="mean inter-arrival time in seconds (default: 10)")
    sub.add_argument("--seed", type=_nonnegative_int, default=0,
                     help="seed of every random draw (default: 0)")
    sub.add_argument("--settlement-period", type=_finite_float, default=None,
                     metavar="S",
                     help="fire a periodic maintenance settlement every S "
                          "simulated seconds")
    sub.add_argument("--shock", type=_shock_spec, action="append",
                     default=[], metavar="SPEC",
                     help="inject a market shock: invalidate@FRAC"
                          "[:PREDICATE], price@FRAC:DUR:FACTOR or "
                          "squeeze@FRAC:DUR:FACTOR (fractions of the run "
                          "span; repeatable; composed onto the command's "
                          "own shocks)")
    sub.add_argument("--strict-maintenance", action="store_true",
                     help="enable the strict-maintenance shutdown policy: "
                          "at every settlement, structures are shut down "
                          "lowest-benefit-first while accrued maintenance "
                          "exceeds query income")


def _add_cell_arguments(sub: argparse.ArgumentParser,
                        n_tenants: int) -> None:
    """The flags ``tenants`` and ``shocks`` share: the population cell, the
    fan-out and the partitioned cache (``shocks`` reruns its shocked cells
    under ``--cache-partitions``)."""
    sub.add_argument("--schemes", default="econ-cheap", metavar="LIST",
                     help="comma-separated scheme names, each at most "
                          "once, or 'all' (default: econ-cheap)")
    sub.add_argument("--n-tenants", type=int, default=n_tenants, metavar="N",
                     help=f"tenants active at any one time "
                          f"(default: {n_tenants})")
    _add_run_arguments(sub)
    sub.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                     help="worker processes shared by all cells, observed "
                          "or not; the tables and the --trace/--metrics "
                          "artifacts are byte-identical to --jobs 1 "
                          "(default: 1)")
    sub.add_argument("--cache-partitions", type=_positive_int, default=1,
                     metavar="N",
                     help="partition the cache and provider economy N ways "
                          "(repro.distcache) — different semantics for "
                          "N > 1, audited at every barrier, with "
                          "per-partition report sections (default: 1, "
                          "global cache)")
    sub.add_argument("--placement", choices=PLACEMENT_MODES, default="hash",
                     help="structure placement across cache partitions: "
                          "'hash' pins every structure to its hash owner, "
                          "'adaptive' hands ownership to the highest-benefit "
                          "partition at barriers and adds a placement "
                          "report section (default: hash)")
    sub.add_argument("--handoff-threshold", type=_nonnegative_float,
                     default=None, metavar="D",
                     help="dollars per epoch a challenger partition must "
                          "out-bid the owner by before an adaptive handoff; "
                          "needs --placement adaptive (default: 0)")


def _add_trace_arguments(sub: argparse.ArgumentParser,
                         full: bool = True) -> None:
    """The shared observability flags of the observable commands.

    ``full`` adds ``--metrics`` and the cProfile ``--profile`` on top of
    ``--trace``/``--force``; the figure/headline grid drivers pass
    ``full=False`` because their ``--profile`` already names the
    experiment profile.
    """
    sub.add_argument("--trace", default=None, metavar="PATH",
                     help="record spans and counters to PATH as sorted "
                          "JSONL, with a run manifest next to it "
                          "(PATH.manifest.json); tracing is observation-"
                          "only — the printed tables are byte-identical "
                          "to the untraced run")
    if full:
        sub.add_argument("--metrics", default=None, metavar="PATH",
                         help="sample engine/cache/economy/batch counters "
                              "at every settlement barrier into PATH as "
                              "sorted per-epoch JSONL, with a run manifest "
                              "next to it (PATH.manifest.json); same "
                              "zero-perturbation contract as --trace")
        sub.add_argument("--profile", action="store_true",
                         help="run under cProfile and fold the top "
                              "cumulative-time hotspots into the --trace/"
                              "--metrics run manifest (requires one of "
                              "them; profiling never touches the printed "
                              "tables)")
    sub.add_argument("--force", action="store_true",
                     help="overwrite an existing --trace/--metrics file")


def _validate_trace(parser: argparse.ArgumentParser,
                    args: argparse.Namespace) -> None:
    """Exit-2 validation of the observability flags (like the numeric
    flag types): parent directories must exist, existing artifacts need
    ``--force``, ``--trace``/``--metrics`` may not share a path, and the
    cProfile ``--profile`` needs a manifest to land its hotspots in."""
    paths = {}
    for attr in ("trace", "metrics"):
        path = getattr(args, attr, None)
        if path is None:
            continue
        paths[attr] = path
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            parser.error(
                f"argument --{attr}: directory {parent!r} does not exist")
        if os.path.exists(path) and not args.force:
            parser.error(f"argument --{attr}: {path!r} exists "
                         f"(pass --force to overwrite)")
    if len(paths) == 2 and paths["trace"] == paths["metrics"]:
        parser.error("arguments --trace/--metrics: must be different "
                     "paths (each is a complete JSONL artifact)")
    # The figure commands' --profile is the experiment profile (a str);
    # only the boolean store_true flag is the cProfile switch.
    profiling = getattr(args, "profile", None)
    if isinstance(profiling, bool) and profiling and not paths:
        parser.error("argument --profile: requires --trace or --metrics "
                     "(the hotspots are folded into their run manifest)")
    # `report --force` overwrites report artifacts; everywhere else the
    # flag only guards --trace/--metrics files.
    if hasattr(args, "trace") and args.force and not paths:
        parser.error("argument --force: requires --trace or --metrics "
                     "(it only overwrites their artifacts)")


def _figure_command(command: str, profile: ExperimentProfile, jobs: int,
                    recorder: Optional[TraceRecorder] = None) -> str:
    grid = run_grid(profile, jobs=jobs, recorder=recorder)
    if command == "figure4":
        return figure4_table(grid=grid)
    if command == "figure5":
        return figure5_table(grid=grid)
    return headline_table(grid=grid)


def _ablation_command(which: str, queries: int) -> str:
    driver, title = _ABLATIONS[which]
    profile = ExperimentProfile(name=f"cli-{which}", query_count=queries,
                                interarrival_times_s=(1.0,))
    rows = driver(profile=profile)
    return format_table(ABLATION_HEADERS, rows, title=title)


def _scenario_command(args: argparse.Namespace,
                      recorder: Optional[TraceRecorder] = None) -> str:
    scenario = build_scenario(
        args.arrival,
        query_count=args.queries,
        interarrival_s=args.interarrival,
        seed=args.seed,
    )
    shocks = tuple(scenario.shocks) + tuple(args.shock)
    system = CloudSystem()
    scheme = system.scheme(args.scheme, economic_config=EconomicSchemeConfig(
        economy=EconomyConfig(strict_maintenance=args.strict_maintenance),
    ))
    observers = []
    if recorder is not None:
        observers = attach_observability(scheme, recorder)
    simulation = CloudSimulation(scheme, SimulationConfig(
        settlement_period_s=args.settlement_period,
        failure_check_period_s=args.failure_check_period,
    ))
    shock_events = compile_shock_events(shocks, scenario.queries)
    result = simulation.run(scenario.queries,
                            phase_changes=scenario.phase_changes,
                            observers=observers,
                            shock_events=shock_events)
    summary = result.summary
    headers = ["metric", "value"]
    rows: List[List[object]] = [
        ["scheme", summary.scheme_name],
        ["arrival scenario", f"{scenario.name} ({scenario.description})"],
        ["queries", summary.query_count],
        ["phase changes", len(scenario.phase_changes)],
        ["shock events", len(shock_events)],
        ["duration_s", summary.duration_s],
        ["operating_cost", summary.operating_cost],
        ["maintenance", summary.maintenance_dollars],
        ["mean_response_s", summary.mean_response_time_s],
        ["p95_response_s", summary.p95_response_time_s],
        ["cache_hit_rate", summary.cache_hit_rate],
        ["builds", summary.builds],
        ["evictions", summary.evictions],
    ]
    engine = getattr(scheme, "engine", None)
    if engine is not None:
        # The bitwise audit every mode runs (see audit_conservation).
        rows.append(["conservation", render_conservation(
            audit_conservation(engine.account, engine.outcomes))])
    title = f"Scenario - {scenario.name} x {summary.scheme_name}"
    return format_table(headers, rows, title=title)


#: Library warnings the CLI re-renders as plain ``warning:`` stderr lines.
_RENDERED_WARNINGS = (PartitionImbalanceWarning, GrammarDegeneracyWarning)


def _resolve_scaling(args: argparse.Namespace) -> None:
    """Reject placement flags that would be ignored and a partitioned
    ``tenants`` cell without an economy, then resolve the unset
    ``--handoff-threshold`` to its 0.0 default. (``shocks`` skips
    ``bypass`` from its partitioned rerun instead.)"""
    if (args.command == "tenants" and args.cache_partitions > 1
            and "bypass" in _selected_schemes(args)):
        raise ReproError(
            "--cache-partitions needs an economy, and the bypass scheme "
            "has none (run it with --cache-partitions 1)"
        )
    if args.placement != "hash" and args.cache_partitions == 1:
        raise ReproError(
            "--placement adaptive needs --cache-partitions > 1: with one "
            "partition every structure is local and there is no placement "
            "to adapt"
        )
    if args.handoff_threshold is None:
        args.handoff_threshold = 0.0
    elif args.placement != "adaptive":
        raise ReproError(
            "--handoff-threshold needs --placement adaptive: hash placement "
            "never hands a structure off"
        )


def _selected_schemes(args: argparse.Namespace) -> List[str]:
    """The schemes ``--schemes`` names (``all`` or a comma list)."""
    names = (list(SCHEME_NAMES) if args.schemes == "all"
             else [name.strip() for name in args.schemes.split(",")
                   if name.strip()])
    if not names:
        raise ReproError("--schemes selects no scheme")
    for name in names:
        if names.count(name) > 1:
            raise ReproError(f"--schemes names {name!r} twice")
    return names


def _planning(args: argparse.Namespace) -> str:
    """The planning path a command runs: batched, except that adaptive
    placement plans scalar — a handoff leaves the cache version stale,
    and batched pricing keys its memo on that version."""
    if getattr(args, "placement", "hash") == "adaptive":
        return PLANNING_SCALAR
    return PLANNING_BATCHED


def _cell_configs(args: argparse.Namespace) -> List[TenantExperimentConfig]:
    """One cell per selected scheme, for ``tenants`` and ``shocks``.

    ``shocks`` runs the stock shock grammar with ``--shock``/``--class``
    composed onto it; ``tenants`` injects ``--shock`` into a plain
    population cell. Every cell reads its population stream as the run
    goes and plans as :func:`_planning` says.
    """
    names = _selected_schemes(args)
    _resolve_scaling(args)
    if args.command == "shocks":
        grammar = default_shock_grammar()
        if args.query_class or args.shock:
            grammar = grammar | ScenarioGrammar(
                classes=tuple(args.query_class), shocks=tuple(args.shock))
        shape = dict(shocks=grammar.shocks, tenant_tiers=grammar.tiers,
                     grammar=grammar)
    else:
        shape = dict(zipf_exponent=args.zipf,
                     initial_credit=args.initial_credit,
                     budget_sigma=args.budget_sigma,
                     churn_period=args.churn_period,
                     churn_fraction=args.churn_fraction,
                     shocks=tuple(args.shock))
    return [
        TenantExperimentConfig(
            scheme=name,
            tenant_count=args.n_tenants,
            query_count=args.queries,
            interarrival_s=args.interarrival,
            seed=args.seed,
            settlement_period_s=args.settlement_period,
            planning=_planning(args),
            strict_maintenance=args.strict_maintenance,
            arrival_mode=ARRIVAL_STREAMED,
            **shape,
        )
        for name in names
    ]


def _partition_runner(args: argparse.Namespace,
                      compare_baseline: bool = True) -> DistCacheRunner:
    """The ``--cache-partitions`` runner; ``--jobs`` fans its cells out."""
    return DistCacheRunner(args.cache_partitions, max_workers=args.jobs,
                           compare_baseline=compare_baseline,
                           placement=args.placement,
                           handoff_threshold=args.handoff_threshold)


def _partition_sections(report) -> List[str]:
    """A partitioned cell's report sections (the divergence section only
    when the global-cache twin ran, the placement one only adaptive)."""
    sections = [distcache_partition_table(report),
                distcache_divergence_table(report),
                distcache_placement_table(report)]
    return [section for section in sections if section is not None]


def _cells_command(args: argparse.Namespace,
                   recorder: Optional[TraceRecorder] = None) -> str:
    """``tenants`` and ``shocks``: one config builder, one warning frame."""
    configs = _cell_configs(args)
    render = (_shocks_sections if args.command == "shocks"
              else _tenants_sections)
    # The run-layout warnings become plain ``warning:`` stderr lines, one
    # per distinct message however many cells raise it; anything else is
    # re-emitted with its original metadata.
    with warnings.catch_warnings(record=True) as caught:
        for category in _RENDERED_WARNINGS:
            warnings.simplefilter("default", category)
        sections = render(args, configs, recorder)
    for entry in caught:
        if issubclass(entry.category, _RENDERED_WARNINGS):
            print(f"warning: {entry.message}", file=sys.stderr)
        else:
            warnings.warn_explicit(entry.message, entry.category,
                                   entry.filename, entry.lineno)
    return "\n\n".join(sections)


def _tenants_sections(args: argparse.Namespace,
                      configs: List[TenantExperimentConfig],
                      recorder: Optional[TraceRecorder]) -> List[str]:
    if args.cache_partitions > 1:
        reports = _partition_runner(args).run_cells(configs, recorder)
        cells = [report.cell for report in reports]
    else:
        cells = run_tenant_experiment(configs, jobs=args.jobs,
                                      recorder=recorder)
        reports = [None] * len(cells)
    sections: List[str] = []
    for cell, report in zip(cells, reports):
        sections.append(tenant_aggregate_table(cell))
        if args.top > 0:
            sections.append(top_tenant_table(cell, limit=args.top))
        if report is not None:
            sections.extend(_partition_sections(report))
    return sections


def _shocks_sections(args: argparse.Namespace,
                     configs: List[TenantExperimentConfig],
                     recorder: Optional[TraceRecorder]) -> List[str]:
    # The recorder observes the primary shocked cells; the partitioned
    # reruns below are conservation audits and stay unobserved.
    results = run_shock_resilience(configs, jobs=args.jobs,
                                   recorder=recorder)
    sections = [shock_resilience_table(results)]
    conservation_lines = [
        f"{item.scheme}: conservation: "
        f"{render_conservation(item.audit, detail=True)}"
        for item in results]
    if args.cache_partitions > 1:
        # Partitioned mode needs an economy; the bypass baseline has none
        # and is skipped from the rerun with a note.
        part_configs = [config for config in configs
                        if config.scheme != "bypass"]
        if len(part_configs) < len(configs):
            conservation_lines.append(
                "bypass: partitioned rerun skipped (no economy)")
        reports = _partition_runner(args, compare_baseline=False).run_cells(
            part_configs)
        for report in reports:
            # The runner audited every partition at every barrier and
            # raised on the first violation, so a report is exact.
            conservation_lines.append(
                f"{report.cell.config.scheme}: conservation: exact "
                f"across {report.partition_count} partitions "
                f"({report.barriers_verified} barriers)")
            sections.extend(_partition_sections(report))
    sections.append("\n".join(conservation_lines))
    return sections


def _report_command(args: argparse.Namespace) -> str:
    targets = write_report_artifacts(args.artifacts, args.out,
                                     force=args.force)
    with open(targets["markdown"], "r", encoding="utf-8") as handle:
        markdown = handle.read()
    footer = "\n".join(f"wrote {path}" for _, path in sorted(targets.items()))
    return markdown + "\n" + footer


def _describe_command() -> str:
    system = CloudSystem()
    lines = [system.schema.describe(), ""]
    lines.append(f"candidate indexes: {len(system.candidate_indexes)}")
    pricing = system.execution_model.config.pricing
    lines.append(f"pricing: ${pricing.cpu_node_per_hour}/node-hour, "
                 f"${pricing.disk_gb_month}/GB-month, "
                 f"${pricing.network_gb}/GB transferred, "
                 f"${pricing.io_per_million}/million I/Os")
    return "\n".join(lines)


def _observed_schemes(args: argparse.Namespace) -> List[str]:
    """The scheme list an observed run covered, for its manifest."""
    if args.command in ("tenants", "shocks"):
        return _selected_schemes(args)
    if args.command in ("figure4", "figure5", "headline"):
        return list(_PROFILES[args.profile].schemes)
    return [args.scheme]


def _write_observability_artifacts(args: argparse.Namespace,
                                   recorder: TraceRecorder,
                                   run_s: float,
                                   profile_top=None) -> None:
    """Emit trace/metrics JSONL artifacts, each with a run manifest
    (``PATH.manifest.json``) carrying the cProfile hotspots when the run
    profiled."""
    schemes = _observed_schemes(args)
    if args.command in ("figure4", "figure5", "headline"):
        seed = _PROFILES[args.profile].seed
    else:
        seed = args.seed
    config = {key: value for key, value in sorted(vars(args).items())
              if key not in ("trace", "metrics", "force")}
    artifacts = []
    if recorder.keeps_events:
        artifacts.append(("trace", args.trace, recorder.write_trace,
                          len(recorder.records)))
    if recorder.takes_samples:
        artifacts.append(("metrics", args.metrics, recorder.write_metrics,
                          len(recorder.samples)))
    for kind, path, write, size in artifacts:
        emit_started = time.perf_counter()
        write(path)
        emit_s = time.perf_counter() - emit_started
        extra = {f"{kind}_path": path,
                 ("trace_events" if kind == "trace"
                  else "metrics_samples"): size}
        if profile_top is not None:
            extra["profile_top"] = profile_top
        manifest = build_manifest(
            args.command,
            seed=seed,
            config=config,
            schemes=schemes,
            cache_partitions=getattr(args, "cache_partitions", 1),
            placement=getattr(args, "placement", "hash"),
            planning=_planning(args),
            phase_timings_s={"run": run_s, f"emit_{kind}": emit_s},
            extra=extra,
        )
        manifest.write(path + ".manifest.json")


def _dispatch(args: argparse.Namespace,
              recorder: Optional[TraceRecorder]) -> str:
    """Route one parsed command to its driver."""
    if args.command in ("figure4", "figure5", "headline"):
        return _figure_command(args.command, _PROFILES[args.profile],
                               args.jobs, recorder=recorder)
    if args.command == "ablation":
        return _ablation_command(args.which, args.queries)
    if args.command == "scenario":
        return _scenario_command(args, recorder=recorder)
    if args.command in ("tenants", "shocks"):
        return _cells_command(args, recorder=recorder)
    if args.command == "report":
        return _report_command(args)
    return _describe_command()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate_trace(parser, args)
    # The one recorder keeps the event log for --trace and takes barrier
    # samples for --metrics.
    recorder: Optional[TraceRecorder] = None
    traced = getattr(args, "trace", None) is not None
    sampled = getattr(args, "metrics", None) is not None
    if traced or sampled:
        recorder = TraceRecorder(events=traced, samples=sampled)
    profiling = getattr(args, "profile", None) is True
    profiler = None
    run_started = time.perf_counter()
    try:
        if profiling:
            import cProfile

            profiler = cProfile.Profile()
            output = profiler.runcall(_dispatch, args, recorder)
        else:
            output = _dispatch(args, recorder)
    except ReproError as error:
        # Invalid values (e.g. --jobs 0) surface as library errors; report
        # them like argparse does instead of dumping a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileExistsError as error:
        # The report pipeline's overwrite guard (mirrors --trace's).
        print(f"error: {error}", file=sys.stderr)
        return 2
    if recorder is not None:
        profile_top = None
        if profiler is not None:
            from repro.obs.manifest import profile_hotspots

            profile_top = profile_hotspots(profiler)
        _write_observability_artifacts(
            args, recorder, time.perf_counter() - run_started,
            profile_top=profile_top)
    print(output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
