"""Smoke test of the end-to-end benchmark at a few hundred queries.

Runs every workload in this process, untraced, traced twice and (for the
parallel workloads) pooled, and checks what the benchmark promises: every
metric in ``BENCHMARK.json`` is emitted with its unit, no repetition
fails, per-layer counts and byte totals repeat exactly, and batched
workloads digest the same as their scalar twins.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 7


def _load_runner():
    spec = importlib.util.spec_from_file_location(
        "e2e_run", os.path.join(HERE, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN = _load_runner()
BENCHMARK = RUN.load_benchmark()

from e2e_workloads import WORKLOADS  # noqa: E402  (run.py sets the path)

NAMES = [entry["name"] for entry in BENCHMARK["workloads"]]


def test_benchmark_names_the_workloads_it_runs():
    assert NAMES == list(WORKLOADS)


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    spans = str(tmp_path_factory.mktemp("spans"))
    runs = {}
    for name in NAMES:
        workload = WORKLOADS[name]
        modes = RUN.round_modes(workload.parallel, trace=True)
        runs[name] = [
            RUN.measure(name, SEED, workload.smoke_queries, mode, spans)
            for mode in modes + modes[1:]
        ]
    return runs


def _assert_emitted(result: dict, declared: list) -> None:
    assert result["correct"]
    assert result["failed"] == 0  # error_rate 0
    assert result["attempted"] >= 1
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared}


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_emitted(records, name):
    result = RUN.summarize(name, SEED, records[name], False, BENCHMARK)
    _assert_emitted(result, BENCHMARK["end_to_end"])
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_layer_metrics_emitted_and_counts_repeat(records, name):
    # summarize() reports a count or byte total that differs between the
    # two traced runs as incorrect.
    result = RUN.summarize(name, SEED, records[name], True, BENCHMARK)
    _assert_emitted(result, BENCHMARK["per_layer"])
    assert result["metrics"]["engine.queries"]["value"] == (
        WORKLOADS[name].smoke_queries
        * (2 if name == "population-sharded2" else 1))


@pytest.mark.parametrize("name", [name for name in NAMES
                                  if WORKLOADS[name].planning != "scalar"])
def test_batched_digest_matches_scalar_twin(records, name):
    workload = WORKLOADS[name]
    scalar = workload.run(SEED, workload.smoke_queries, "scalar", 1)
    assert {record["digest"] for record in records[name]} == {
        hashlib.sha256(scalar.encode()).hexdigest()}
