"""The CLI's tenant-cell modes, declared once as a table (see "The mode
lattice" in ``docs/architecture.md``).

Every corner of the four axes that change the tables (partitions,
shocks, churn, schemes) runs, except those the CLI cannot express; the
recorder and ``--jobs`` are spread over the corners so that every pair
of axis values occurs in some run. Each case runs :func:`repro.cli.main`
in process and checks its tables against library cells planned scalar
on eager arrivals, that every conservation line reads exact, and that
its artifacts are byte-identical across ``--jobs``, with one header
source per scheme.
"""

import itertools
import json
import re
from typing import NamedTuple, Tuple

import pytest

import repro
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

SIZE = "--n-tenants 24 --queries 80 --settlement-period 20"
SQUEEZE = "squeeze@0.6:0.2:0.5"


def _grammar(*specs):
    """The oracle fields of ``shocks --strict-maintenance --shock ...``."""
    grammar = default_shock_grammar() | ScenarioGrammar(
        shocks=tuple(map(parse_shock, specs)))
    return dict(strict_maintenance=True, shocks=grammar.shocks,
                tenant_tiers=grammar.tiers, grammar=grammar)


#: Each axis maps its values to argv (and, for the tables axes, the
#: oracle cell's fields).
PARTITIONS = {
    "1": "--cache-partitions 1",
    "2-hash": "--cache-partitions 2",
    "2-adaptive": "--cache-partitions 2 --placement adaptive",
}
SHOCKS = {
    "none": ("tenants", {}),
    "grammar": (f"shocks --strict-maintenance --shock {SQUEEZE}",
                _grammar(SQUEEZE)),
    "invalidate": (f"shocks --strict-maintenance --shock {SQUEEZE} "
                   f"--shock invalidate@0.5",
                   _grammar(SQUEEZE, "invalidate@0.5")),
}
CHURN = {"off": ("", {}), "on": ("--churn-period 20", {"churn_period": 20})}
SCHEMES = {"one": ("econ-cheap",), "two": ("econ-cheap", "econ-fast")}
RECORDERS = {"none": (), "trace": ("trace",), "metrics": ("metrics",),
             "both": ("trace", "metrics")}
JOBS = ("1", "2")


class Corner(NamedTuple):
    """A command line without ``--jobs`` or a recorder, the oracle cells
    whose tables it prints, and whether ``ShardCoordinator(2)`` prints
    them too (for as long as ``repro.sharding`` is there)."""

    argv: Tuple[str, ...]
    configs: Tuple[TenantExperimentConfig, ...]
    sharded: bool


def _corner(command, schemes, sharded=False, **fields):
    configs = tuple(
        TenantExperimentConfig(scheme=scheme, planning="scalar",
                               arrival_mode="eager", **fields)
        for scheme in schemes)
    argv = f"{command} --schemes {','.join(schemes)}".split()
    return Corner(tuple(argv), configs, sharded)


#: Every tables corner, keyed by its (partitions, shocks, churn, schemes)
#: values, in (shocks, churn, schemes, partitions) order.
CORNERS = {
    (layout, shock, churn, schemes): _corner(
        f"{SHOCKS[shock][0]} {SIZE} {PARTITIONS[layout]} {CHURN[churn][0]}",
        SCHEMES[schemes], sharded=layout == "1" and shock == "none",
        tenant_count=24, query_count=80, settlement_period_s=20.0,
        **SHOCKS[shock][1], **CHURN[churn][1])
    for shock, churn, schemes, layout in itertools.product(
        SHOCKS, CHURN, SCHEMES, PARTITIONS)
    if churn == "off" or shock == "none"
}

#: The recorder of each corner, taken in turn along the corner order: a
#: shortest cycle that puts every pair of axis values in some run and
#: records both artifacts of a plain and of a partitioned two-scheme
#: ``tenants`` cell. An observed corner runs at both ``--jobs`` values;
#: the unobserved ones alternate them.
RECORDER_TURNS = ("both", "none", "none", "both", "none", "none", "metrics",
                  "trace")


def _cases():
    unobserved = itertools.cycle(JOBS)
    for index, key in enumerate(CORNERS):
        recorder = RECORDER_TURNS[index % len(RECORDER_TURNS)]
        jobs = JOBS if RECORDERS[recorder] else (next(unobserved),)
        yield key, recorder, jobs


CASES = list(_cases())

#: Corners of other shapes: the 24 x 80 ``tenants`` cell without the
#: lattice's flags, plain and churned with budget skew; budget skew on a
#: larger cell, 20,000 tenants arriving and churning in cohorts, and
#: shocks in a ``tenants`` cell.
SIZED = {
    "small": _corner("tenants --n-tenants 24 --queries 80", ["econ-cheap"],
                     True, tenant_count=24, query_count=80),
    "small-churn": _corner(
        "tenants --n-tenants 24 --queries 80 --churn-period 20 "
        "--budget-sigma 0.3", ["econ-cheap"], True, tenant_count=24,
        query_count=80, churn_period=20, budget_sigma=0.3),
    "fidelity": _corner(
        "tenants --n-tenants 50 --queries 300 --churn-period 60 "
        "--settlement-period 200 --budget-sigma 0.3", ["econ-cheap"], True,
        tenant_count=50, query_count=300, churn_period=60,
        settlement_period_s=200.0, budget_sigma=0.3),
    "bulk-lifecycle": _corner(
        "tenants --n-tenants 20000 --queries 400 --churn-period 100",
        ["econ-cheap"], True, tenant_count=20000, query_count=400,
        churn_period=100),
    "tenants-shocks": _corner(
        "tenants --n-tenants 24 --queries 80 --shock invalidate@0.5:index "
        "--shock price@0.6:0.2:2.0", ["econ-cheap"], True,
        tenant_count=24, query_count=80,
        shocks=(parse_shock("invalidate@0.5:index"),
                parse_shock("price@0.6:0.2:2.0"))),
}

#: Reference tables by corner argv, rendered once per corner.
_REFERENCES = {}


def _assert_tables(capsys, corner, argv):
    """Run ``argv``: it must print the command's own sections rendered
    over the corner's oracle cells."""
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    if corner.argv not in _REFERENCES:
        args = cli.build_parser().parse_args(list(corner.argv))
        cli._resolve_scaling(args)
        render = (cli._shocks_sections if args.command == "shocks"
                  else cli._tenants_sections)
        _REFERENCES[corner.argv] = "\n\n".join(
            render(args, list(corner.configs), None)) + "\n"
    assert printed == _REFERENCES[corner.argv], argv
    return printed


def _assert_sharded_twin(corner, printed):
    sections = []
    for config in corner.configs:
        cell = ShardCoordinator(2).run_cell(config).cell
        sections += [tenant_aggregate_table(cell), top_tenant_table(cell)]
    assert printed == "\n\n".join(sections) + "\n"


def _assert_artifact(path, kind, corner):
    """The header lists one source per scheme (partitions nest under
    theirs), and the header, records and manifest agree."""
    schemes = [config.scheme for config in corner.configs]
    header, *records = map(json.loads, path.read_text().splitlines())
    assert header["kind"] == f"{kind}_header"
    assert [s for s in header["sources"] if "/" not in s] == schemes
    assert {s.split("/")[0] for s in header["sources"]} == set(schemes)
    manifest = json.loads(path.with_name(path.name + ".manifest.json")
                          .read_text())
    planning = "scalar" if "adaptive" in corner.argv else "batched"
    assert (manifest["command"], manifest["planning"], manifest["version"]
            ) == (corner.argv[0], planning, repro.__version__)
    assert manifest["peak_rss_bytes"] > 0 and "shards" not in manifest
    assert set(manifest["phase_timings_s"]) == {"run", f"emit_{kind}"}
    if kind == "trace":
        events = [record for record in records if record["kind"] != "counter"]
        assert len(events) == header["events"] == manifest["trace_events"] > 0
        # A batched cell records its windows; a scalar one has none.
        assert (planning == "batched") == any(
            event["kind"] == "batch_window" for event in events)
    else:
        samples = [record for record in records if record["kind"] == "sample"]
        assert len(samples) == header["samples"] == manifest[
            "metrics_samples"] > 0
        assert all("counters" in sample and "peak_rss_bytes" not in sample
                   for sample in samples)


@pytest.mark.parametrize(
    "key, recorder, jobs", CASES,
    ids=["-".join(key) + f"-{recorder}-jobs{'+'.join(jobs)}"
         for key, recorder, jobs in CASES])
def test_lattice(tmp_path, capsys, key, recorder, jobs):
    corner = CORNERS[key]
    artifacts = {kind: set() for kind in RECORDERS[recorder]}
    for job in jobs:
        paths = {kind: tmp_path / f"{kind}{job}.jsonl" for kind in artifacts}
        argv = [*corner.argv, "--jobs", job, *itertools.chain.from_iterable(
            (f"--{kind}", str(path)) for kind, path in paths.items())]
        printed = _assert_tables(capsys, corner, argv)
        # One audit per scheme in a shocks run, and one per scheme in a
        # partitioned run; every verdict exact.
        verdicts = re.findall(r"conservation: (\w+)", printed)
        shocks, partitioned = corner.argv[0] == "shocks", key[0] != "1"
        assert set(verdicts) <= {"exact"}
        assert len(verdicts) >= len(corner.configs) * (shocks + partitioned)
        if shocks and partitioned:
            assert printed.count("conservation: exact across 2 "
                                 "partitions") == len(corner.configs)
        for kind, path in paths.items():
            _assert_artifact(path, kind, corner)
            artifacts[kind].add(path.read_bytes())
    assert all(len(contents) == 1 for contents in artifacts.values())
    if corner.sharded:
        _assert_sharded_twin(corner, printed)


@pytest.mark.parametrize("name", list(SIZED))
def test_sized_corner(capsys, name):
    corner = SIZED[name]
    _assert_sharded_twin(corner, _assert_tables(capsys, corner,
                                                list(corner.argv)))


def test_every_pair_occurs():
    """Every pair of axis values the CLI can express occurs in a run."""
    names = ("partitions", "shocks", "churn", "schemes", "recorder", "jobs")
    axes = (PARTITIONS, SHOCKS, CHURN, SCHEMES, RECORDERS, JOBS)
    seen = {pair for key, recorder, jobs in CASES for job in jobs
            for pair in itertools.combinations(
                zip(names, (*key, recorder, job)), 2)}
    for (axis, values), (other, others) in itertools.combinations(
            zip(names, axes), 2):
        for pair in itertools.product(((axis, value) for value in values),
                                      ((other, value) for value in others)):
            if (pair[1] == ("churn", "on") and pair[0][0] == "shocks"
                    and pair[0][1] != "none"):
                continue    # shocks has no --churn-period
            assert pair in seen, pair
