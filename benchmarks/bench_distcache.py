"""Partitioned-cache scaling benchmark: replicated vs partitioned modes.

The claim under test is the one ``docs/distcache.md`` makes: the
replicated-replay sharding mode multiplies per-query compute (every shard
replays every query), while the partitioned mode keeps it flat (each
query is planned and priced by exactly one partition) and shrinks each
worker's cache footprint to its owned slice.

Both modes therefore run on **one worker process** here: sequential
wall-clock is total compute, which is the quantity the modes differ in —
with N shards the replicated run does ~N times the engine work of the
unsharded run, the partitioned run ~1 times. Per-worker peak cache bytes
are read from the cache managers themselves. Each partitioned scale also
runs with ``placement="adaptive"``: template-affinity routing makes the
workload locality-skewed (a template's queries all land on one
partition, which keeps paying the remote surcharge for foreign-owned
structures), and the adaptive rows record how demand-driven handoffs cut
that surcharge and how delta publication cuts barrier bytes (the
dedicated sweep is ``bench_placement.py``). Results land in
``BENCH_distcache.json`` next to ``BENCH_sharding.json``.

Run directly::

    PYTHONPATH=src python benchmarks/bench_distcache.py --tenants 100 --queries 300

or via the pytest wrapper (``benchmarks/test_bench_distcache.py``), which
uses a smaller population so the suite stays fast.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Dict, List, Optional, Sequence

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.distcache import run_partitioned_cell  # noqa: E402
from repro.experiments.tenants import (  # noqa: E402
    TenantCell,
    TenantExperimentConfig,
    run_tenant_cell,
)
from repro.sharding import ShardCoordinator  # noqa: E402

#: Default artifact path: the repository root, as a first-class record.
DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_distcache.json")


def _peak_global_cache_bytes(config: TenantExperimentConfig) -> int:
    """Peak cache footprint of the shared-cache run (what every replicated
    worker materialises)."""
    cell = TenantCell(config)
    cell.run()
    return cell.scheme.cache.peak_disk_used_bytes


def run_benchmark(tenant_count: int = 100, query_count: int = 300,
                  partition_counts: Sequence[int] = (1, 2, 4),
                  scheme: str = "econ-cheap", seed: int = 0,
                  settlement_period_s: float = 30.0) -> Dict:
    """Time both modes at each scale on one worker; record the artifact.

    Args:
        tenant_count: population size of the cell.
        query_count: queries replayed per run.
        partition_counts: scales to sweep; each count N is run as
            ``--shards N`` (replicated) and ``--cache-partitions N``
            (partitioned).
        scheme: the caching scheme under test.
        seed: workload/population seed.
        settlement_period_s: barrier period (directory sync cadence for
            the partitioned runs, checkpoint cadence for the sharded ones).

    Returns:
        The report dictionary written to ``BENCH_distcache.json``.
    """
    config = TenantExperimentConfig(
        scheme=scheme, tenant_count=tenant_count, query_count=query_count,
        interarrival_s=1.0, seed=seed,
        settlement_period_s=settlement_period_s,
    )
    started = time.perf_counter()
    run_tenant_cell(config)
    unsharded_s = time.perf_counter() - started
    global_peak = _peak_global_cache_bytes(config)

    runs: List[Dict] = []
    for count in partition_counts:
        coordinator = ShardCoordinator(count, max_workers=1)
        started = time.perf_counter()
        coordinator.run_cell(config)
        replicated_s = time.perf_counter() - started
        runs.append({
            "benchmark_mode": "replicated",
            "partitions": count,
            "elapsed_s": replicated_s,
            "queries_per_s": query_count / replicated_s,
            "engine_queries": query_count * count,
            "peak_worker_cache_bytes": global_peak,
        })

        for placement in ("hash", "adaptive"):
            started = time.perf_counter()
            report = run_partitioned_cell(config, partitions=count,
                                          compare_baseline=False,
                                          placement=placement)
            partitioned_s = time.perf_counter() - started
            runs.append({
                # "partitioned" == the hash-placement mode of PR 4; the
                # adaptive mode additionally hands hot structures to
                # their highest-benefit partition at barriers, cutting
                # the recurring remote surcharge the locality-skewed
                # template routing otherwise keeps paying.
                "benchmark_mode": ("partitioned" if placement == "hash"
                                   else "adaptive"),
                "partitions": count,
                "elapsed_s": partitioned_s,
                "queries_per_s": query_count / partitioned_s,
                "engine_queries": query_count,
                "peak_worker_cache_bytes": max(
                    stats.peak_cache_bytes for stats in report.partitions),
                "remote_hits": report.remote_hit_count,
                "remote_surcharge_dollars": report.remote_dollars_paid,
                "handoffs": report.handoff_count,
                "directory_bytes_published":
                    report.directory_bytes_published,
                "directory_bytes_full_republication":
                    report.directory_bytes_full,
                "cache_hit_rate": report.cell.summary.cache_hit_rate,
                "barriers_verified": report.barriers_verified,
            })
    return {
        "benchmark": "distcache",
        "scheme": scheme,
        "tenant_count": tenant_count,
        "query_count": query_count,
        "seed": seed,
        "settlement_period_s": settlement_period_s,
        "python": platform.python_version(),
        "unsharded": {
            "elapsed_s": unsharded_s,
            "queries_per_s": query_count / unsharded_s,
            "peak_worker_cache_bytes": global_peak,
        },
        "runs": runs,
    }


def write_report(report: Dict, path: str = DEFAULT_OUTPUT) -> str:
    """Write the report as pretty JSON; returns the path."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Record replicated-vs-partitioned throughput to "
                    "BENCH_distcache.json")
    parser.add_argument("--tenants", type=int, default=100)
    parser.add_argument("--queries", type=int, default=300)
    parser.add_argument("--partitions", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument("--scheme", default="econ-cheap")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--settlement-period", type=float, default=30.0)
    parser.add_argument("--output", default=DEFAULT_OUTPUT)
    parser.add_argument("--history", default=None, metavar="DIR",
                        help="additionally append a bench-history record "
                             "(git sha + config hash + headline metrics) "
                             "to DIR/<benchmark>.jsonl for "
                             "'repro report --baseline'")
    args = parser.parse_args(argv)
    report = run_benchmark(
        tenant_count=args.tenants, query_count=args.queries,
        partition_counts=tuple(args.partitions), scheme=args.scheme,
        seed=args.seed, settlement_period_s=args.settlement_period,
    )
    path = write_report(report, args.output)
    if args.history:
        from repro.obs.history import append_bench_history

        history_path = append_bench_history(report, args.history)
        print(f"history appended to {history_path}")
    for run in report["runs"]:
        print(f"{run['benchmark_mode']:>11} x{run['partitions']}: "
              f"{run['elapsed_s']:.2f}s ({run['queries_per_s']:.0f} q/s, "
              f"peak {run['peak_worker_cache_bytes'] / 1024 ** 3:.0f} GB "
              f"cache/worker)")
    print(f"report written to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
