"""Property: every combination of the partitioning and observability
flags either runs on a tiny cell or exits 2 with exactly one ``error:``
line — never a traceback, never a silently ignored flag. The layouts
and recorders are the mode lattice's (``tests/test_mode_lattice.py``):
a layout runs exactly when the lattice declares it."""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.cli import main
from test_mode_lattice import PARTITIONS, RECORDERS

#: The tiny cell each command runs (<= 8 tenants, <= 30 queries).
BASE = {
    "tenants": ["tenants", "--n-tenants", "6", "--queries", "24",
                "--schemes", "econ-cheap", "--interarrival", "5",
                "--settlement-period", "40", "--jobs", "1"],
    "shocks": ["shocks", "--n-tenants", "6", "--queries", "24",
               "--schemes", "econ-cheap", "--interarrival", "5",
               "--settlement-period", "40", "--jobs", "1"],
    "scenario": ["scenario", "--queries", "24", "--interarrival", "5",
                 "--settlement-period", "40"],
}

#: The cache layouts: the lattice's, plus adaptive placement on one
#: partition, which the CLI refuses.
LAYOUTS = {**PARTITIONS, "1-adaptive": "--placement adaptive"}


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(["tenants", "shocks", "scenario"]))
    flags = []
    if command != "scenario":
        flags += LAYOUTS[draw(st.sampled_from(list(LAYOUTS)))].split()
        if draw(st.booleans()):
            flags += ["--handoff-threshold", "0.5"]
    if draw(st.booleans()):
        flags.append("--strict-maintenance")
    recorder = draw(st.sampled_from(list(RECORDERS)))
    sinks = {kind: draw(st.sampled_from(["new", "existing"]))
             for kind in RECORDERS[recorder]}
    if recorder == "both" and draw(st.booleans()):
        sinks["metrics"] = "trace's"
    profile = draw(st.booleans())
    force = draw(st.booleans())
    return command, flags, sinks, profile, force


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


@given(invocation=invocations())
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
def test_every_flag_combination_runs_or_exits_2(tmp_path, invocation):
    command, flags, sinks, profile, force = invocation
    workdir = tempfile.mkdtemp(dir=tmp_path)    # one per example
    argv = BASE[command] + flags
    paths = {}
    for sink, kind in sinks.items():
        path = paths.get("trace") if kind == "trace's" else None
        if path is None:
            path = f"{workdir}/{sink}.jsonl"
        if kind == "existing":
            with open(path, "w") as handle:
                handle.write("stale")
        paths[sink] = path
        argv += [f"--{sink}", path]
    if profile:
        argv.append("--profile")
    if force:
        argv.append("--force")

    code, out, err = _run(argv)
    event(f"{command} exit {code}")

    assert "Traceback" not in err, (argv, err)
    assert code in (0, 2), (argv, code, err)
    if code == 2:
        error_lines = [line for line in err.splitlines() if "error:" in line]
        assert len(error_lines) == 1, (argv, err)
        assert out == ""
    else:
        assert out.strip(), argv
        for path in paths.values():
            with open(path) as handle:
                assert handle.read() != "stale", (argv, path)


@pytest.mark.parametrize("threshold", [False, True],
                         ids=["no-threshold", "threshold"])
@pytest.mark.parametrize("layout", list(LAYOUTS))
@pytest.mark.parametrize("command", ["tenants", "shocks"])
def test_layout_runs_only_inside_the_lattice(command, layout, threshold):
    """A layout runs exactly when the lattice declares it, and
    ``--handoff-threshold`` only with adaptive placement, which alone
    hands structures off."""
    argv = BASE[command] + LAYOUTS[layout].split()
    if threshold:
        argv += ["--handoff-threshold", "0.5"]
    code, out, err = _run(argv)
    runs = layout in PARTITIONS and (not threshold or "adaptive" in layout)
    assert code == (0 if runs else 2), (argv, err)
    assert bool(out) == runs


#: The CLI flags tenant cells no longer take, on each command that had one.
REMOVED = [("tenants", "--shards", "2"), ("shocks", "--shards", "2"),
           ("tenants", "--planning", "scalar"),
           ("shocks", "--planning", "batched"),
           ("tenants", "--arrival-mode", "eager")]


@pytest.mark.parametrize("argv, message", [
    (BASE["tenants"] + ["--top", "-1"], "argument --top: must be >= 0"),
    # With no artifact there is nothing to summarize.
    (["report"], "the following arguments are required: PATH"),
    # A non-JSONL path (say, a bench JSON) is not a trace or metrics
    # artifact; summarizing it could only degrade to a warning.
    (["report", "results.json"], "'results.json'"),
    # A scheme named twice would run its cell twice, and observed, both
    # copies would record into the one scheme source.
    (BASE["tenants"] + ["--schemes", "econ-cheap,econ-fast,econ-cheap"],
     "--schemes names 'econ-cheap' twice"),
    (BASE["shocks"] + ["--schemes", "econ-cheap, econ-cheap"],
     "--schemes names 'econ-cheap' twice"),
    # The grid and scenario commands always plan in batches.
    (["figure4", "--planning", "scalar"], "unrecognized arguments"),
    (["figure5", "--planning", "batched"], "unrecognized arguments"),
    (["headline", "--planning", "scalar"], "unrecognized arguments"),
    (BASE["scenario"] + ["--planning", "batched"],
     "unrecognized arguments: --planning batched"),
    # Tenant cells run unsharded and streamed, and plan batched (scalar
    # under --placement adaptive): the switches that picked otherwise
    # are gone.
    *[(BASE[command] + [flag, value], f"unrecognized arguments: {flag}")
      for command, flag, value in REMOVED],
    # A negative seed is an argparse error, not a numpy traceback.
    *[(BASE[command] + ["--seed", "-1"], "argument --seed: must be >= 0")
      for command in ("scenario", "tenants", "shocks")],
], ids=["top", "report-no-artifact", "report-not-jsonl",
        "duplicate-schemes-tenants", "duplicate-schemes-shocks",
        "planning-figure4", "planning-figure5", "planning-headline",
        "planning-scenario"]
    + [f"{flag[2:]}-{command}" for command, flag, _ in REMOVED]
    + ["seed-scenario", "seed-tenants", "seed-shocks"])
def test_ignored_flag_exits_2(tmp_path, argv, message):
    """A flag or argument that would be silently ignored, or would print
    wrong tables, exits 2 with one error line and writes nothing."""
    if argv[0] == "report":
        argv = argv + ["--out", str(tmp_path / "artifacts")]
    code, out, err = _run(argv)
    assert code == 2, (argv, err)
    assert "Traceback" not in err
    error_lines = [line for line in err.splitlines() if "error:" in line]
    assert len(error_lines) == 1 and message in error_lines[0], err
    assert out == ""
    assert not (tmp_path / "artifacts").exists()


#: Population and workload fields the cell config rejects, with the
#: message of the spec that validates each.
BAD_FIELDS = [
    ("--n-tenants", "0", "tenant_count must be positive"),
    ("--zipf", "-1", "zipf_exponent must be non-negative"),
    ("--churn-fraction", "2", "churn_fraction must be in [0, 1]"),
    ("--interarrival", "0", "interarrival_s must be positive"),
    ("--initial-credit", "-1", "initial_credit must be non-negative"),
    ("--churn-period", "-1", "churn_period must be non-negative"),
]


@pytest.mark.parametrize("flag, value, message", BAD_FIELDS,
                         ids=[flag[2:] for flag, _, _ in BAD_FIELDS])
def test_invalid_population_field_exits_2_before_the_cell_runs(
        flag, value, message):
    """The config rejects the value when it is built, so the one error
    line is the spec's message, not a failure of a named cell."""
    code, out, err = _run(BASE["tenants"] + [flag, value])
    assert code == 2, err
    assert "Traceback" not in err
    assert err.splitlines() == [f"error: {message}"]
    assert out == ""
