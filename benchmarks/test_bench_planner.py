"""Pytest wrapper around the scalar-vs-batched planning benchmark.

Runs the real driver at a reduced size so the suite stays fast, then
checks the two claims the committed ``BENCH_planner.json`` makes at the
headline size: the batched path is outcome-identical to scalar, and it is
faster. The speedup is a ratio to the scalar path, which prices each
structure once per query; the committed headline report shows about
2.5x. The floor here sits below every reduced-size ratio measured (1.86x
to 3.36x over twelve runs on a two-core machine): CI runners are noisy,
and the reduced workload amortises the vectorized passes over fewer
queries.
"""

from __future__ import annotations

import json
import os

from bench_planner import run_benchmark, write_report


def test_planner_speedup_report(output_dir):
    report = run_benchmark(query_count=400, repetitions=2)
    by_mode = {run["benchmark_mode"]: run for run in report["runs"]}

    assert set(by_mode) == {"scalar", "batched-cold", "batched-warm"}
    for run in report["runs"]:
        assert run["elapsed_s"] > 0
        assert run["queries_per_s"] > 0
        assert len(run["repetition_elapsed_s"]) == 2

    # The parity contract: a speedup claim is only valid if the batched
    # outcome stream matches the scalar one step for step.
    assert report["outcomes_identical"]

    # The perf contract (reduced-size floor): batched planning stays
    # clearly faster than scalar.
    assert report["speedup"]["batched_cold_vs_scalar"] > 1.5
    assert report["speedup"]["batched_warm_vs_scalar"] > 1.5

    # Warm runs reuse the plan tables materialised by the cold run.
    assert by_mode["batched-warm"]["plan_tables_reused"] > 0

    path = write_report(report, os.path.join(output_dir, "BENCH_planner.json"))
    data = json.loads(open(path, encoding="utf-8").read())
    assert data["runs"]
