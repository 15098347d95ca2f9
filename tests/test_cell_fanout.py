"""The one tenant-cell fan-out: per-cell recorder sources, pooled observed
cells, observed cells of one scheme refused.

``tenants``, ``shocks`` and ``tenants --cache-partitions`` all fan their
cells out through :func:`repro.experiments.tenants.run_cells`. Each cell
records into its own source (``<scheme>``, its partitions into
``<scheme>/partition<i>``), so an observed multi-scheme run keeps the
schemes apart, and each scheme's lines are those of its solo run.
"""

import json

import pytest

from repro.cli import main
from repro.errors import DistCacheError, ExperimentError
from repro.distcache import DistCacheRunner
from repro.experiments.shocks import run_shock_resilience
from repro.experiments.tenants import (TenantExperimentConfig,
                                       run_tenant_cell, run_tenant_experiment)
from repro.obs.trace import TraceRecorder
from repro.workload.grammar import parse_shock

SCHEMES = ("econ-cheap", "econ-fast")

#: One tiny observed shape per driver.
SHAPES = {
    "tenants": ["tenants", "--n-tenants", "6", "--queries", "40",
                "--interarrival", "5", "--settlement-period", "40"],
    "shocks": ["shocks", "--n-tenants", "6", "--queries", "40",
               "--interarrival", "5", "--settlement-period", "40"],
    "tenants-partitioned": ["tenants", "--n-tenants", "6", "--queries", "40",
                            "--interarrival", "5", "--settlement-period",
                            "20", "--cache-partitions", "2"],
}


def _observe(tmp_path, capsys, argv, name):
    """Run ``argv`` with --trace and --metrics; the parsed lines of both."""
    trace = tmp_path / f"{name}.t.jsonl"
    metrics = tmp_path / f"{name}.m.jsonl"
    assert main(argv + ["--trace", str(trace),
                        "--metrics", str(metrics)]) == 0
    capsys.readouterr()
    return ([json.loads(line) for line in trace.read_text().splitlines()],
            [json.loads(line) for line in metrics.read_text().splitlines()])


def _owned_by(scheme, line):
    source = line.get("source", "")
    return source == scheme or source.startswith(scheme + "/")


@pytest.mark.parametrize("shape", list(SHAPES), ids=list(SHAPES))
def test_two_observed_schemes_keep_their_own_sources(tmp_path, capsys,
                                                     shape):
    argv = SHAPES[shape]
    trace, metrics = _observe(tmp_path, capsys,
                              argv + ["--schemes", ",".join(SCHEMES)],
                              "both")
    for header in (trace[0], metrics[0]):
        assert all(any(_owned_by(scheme, {"source": source})
                       for scheme in SCHEMES)
                   for source in header["sources"])
        assert set(SCHEMES) <= set(header["sources"])
    samples = [line for line in metrics if line["kind"] == "sample"]
    keys = [(line["time_s"], line["source"], line["epoch"])
            for line in samples]
    assert samples and len(set(keys)) == len(keys)
    for scheme in SCHEMES:
        solo_trace, solo_metrics = _observe(
            tmp_path, capsys, argv + ["--schemes", scheme], scheme)
        # Records, samples and counters: every line but the header.
        assert [line for line in trace[1:] if _owned_by(scheme, line)] \
            == solo_trace[1:]
        assert [line for line in metrics[1:] if _owned_by(scheme, line)] \
            == solo_metrics[1:]


@pytest.mark.parametrize("shape", list(SHAPES), ids=list(SHAPES))
def test_pooled_observed_run_writes_the_sequential_artifacts(tmp_path,
                                                             capsys, shape):
    """Observed cells use the pool, and no sample carries the process's
    RSS (the manifest does), so ``--jobs 2`` must write the ``--jobs 1``
    bytes."""
    argv = SHAPES[shape] + ["--schemes", ",".join(SCHEMES)]
    artifacts = {}
    for jobs in ("1", "2"):
        trace = tmp_path / f"jobs{jobs}.t.jsonl"
        metrics = tmp_path / f"jobs{jobs}.m.jsonl"
        assert main(argv + ["--jobs", jobs, "--trace", str(trace),
                            "--metrics", str(metrics)]) == 0
        artifacts[jobs] = (trace.read_bytes(), metrics.read_bytes(),
                           capsys.readouterr().out)
    assert artifacts["2"] == artifacts["1"]


CELL = TenantExperimentConfig(tenant_count=6, query_count=30,
                              interarrival_s=5.0, settlement_period_s=40.0,
                              shocks=(parse_shock("price@0.4:0.3:1.6"),))


@pytest.mark.parametrize("run, error_type", [
    (lambda configs, recorder: run_tenant_experiment(
        configs, recorder=recorder), ExperimentError),
    (lambda configs, recorder: run_shock_resilience(
        configs, recorder=recorder), ExperimentError),
    (lambda configs, recorder: DistCacheRunner(2).run_cells(
        configs, recorder), DistCacheError),
], ids=["tenants", "shocks", "partitioned"])
def test_observed_cells_of_one_scheme_are_refused(run, error_type):
    with pytest.raises(error_type,
                       match="two observed cells run scheme 'econ-cheap'"):
        run([CELL, CELL], TraceRecorder())


def test_unobserved_cells_of_one_scheme_still_run():
    first, second = run_tenant_experiment([CELL, CELL])
    assert first == second == run_tenant_cell(CELL)
