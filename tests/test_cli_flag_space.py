"""Property: every combination of the scaling, planning, arrival and
observability flags either runs on a tiny cell or exits 2 with exactly one
``error:`` line — never a traceback, never a silently ignored flag."""

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.cli import main

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

#: The flags of the space each command accepts.
ACCEPTS = {
    "tenants": {"--shards", "--cache-partitions", "--placement",
                "--handoff-threshold", "--arrival-mode"},
    "shocks": {"--shards", "--cache-partitions", "--placement",
               "--handoff-threshold"},
    "scenario": set(),
}


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(["tenants", "shocks", "scenario"]))
    optional = {
        "--shards": draw(st.sampled_from([None, "1", "2"])),
        "--cache-partitions": draw(st.sampled_from([None, "1", "2"])),
        "--placement": draw(st.sampled_from([None, "hash", "adaptive"])),
        "--handoff-threshold": draw(st.sampled_from([None, "0.5"])),
        "--arrival-mode": draw(st.sampled_from([None, "eager",
                                                "streamed"])),
    }
    flags = []
    for flag, value in optional.items():
        if value is not None and flag in ACCEPTS[command]:
            flags += [flag, value]
    flags += ["--planning", draw(st.sampled_from(["scalar", "batched"]))]
    if draw(st.booleans()):
        flags.append("--strict-maintenance")
    sinks = {
        "trace": draw(st.sampled_from(["absent", "new", "existing"])),
        "metrics": draw(st.sampled_from(["absent", "new", "existing",
                                         "trace's"])),
    }
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
    for sink in ("trace", "metrics"):
        kind = sinks[sink]
        if kind == "absent":
            continue
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


@pytest.mark.parametrize("argv, message", [
    (BASE["tenants"] + ["--top", "-1"], "argument --top: must be >= 0"),
    # With no artifact there is nothing to summarize.
    (["report"], "the following arguments are required: PATH"),
    # A non-JSONL path (say, a bench JSON) is not a trace or metrics
    # artifact; summarizing it could only degrade to a warning.
    (["report", "results.json"], "'results.json'"),
], ids=["top", "report-no-artifact", "report-not-jsonl"])
def test_ignored_flag_exits_2(tmp_path, argv, message):
    """A flag or argument that would be silently ignored exits 2 with one
    error line and writes nothing."""
    if argv[0] == "report":
        argv = argv + ["--out", str(tmp_path / "artifacts")]
    code, out, err = _run(argv)
    assert code == 2, (argv, err)
    assert "Traceback" not in err
    error_lines = [line for line in err.splitlines() if "error:" in line]
    assert len(error_lines) == 1 and message in error_lines[0], err
    assert out == ""
    assert not (tmp_path / "artifacts").exists()
