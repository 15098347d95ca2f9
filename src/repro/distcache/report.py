"""Report tables specific to partitioned-cache runs.

Up to three sections accompany the standard tenant tables of a
partitioned run:

* the **partition table** — per-partition load, local cache footprint,
  remote traffic and its surcharge dollars, and sub-account balances,
  plus the audit trail line (barriers verified, conservation exact) and
  the directory bytes the barriers published against full republication;
* the **divergence table** — the semantics price tag: headline metrics of
  the partitioned run against the global-cache run of the same seed, so
  nobody mistakes partitioned numbers for replicated ones;
* the **placement table** (adaptive runs only — ``--placement hash``
  output stays byte-identical to the pre-placement runner) — per-barrier
  directory churn (adds/removes/moves, delta versus full bytes, anchor
  marks) and the ownership handoffs applied, with the handoff headline in
  the title for smoke tests to grep.
"""

from __future__ import annotations

from typing import List, Optional

from repro.distcache.runner import DistCacheCellReport
from repro.experiments.reporting import format_table


def distcache_partition_table(report: DistCacheCellReport) -> str:
    """Per-partition accounting of one partitioned cell."""
    headers = ["partition", "queries", "structures", "peak_cache_mb",
               "remote_hits", "remote_mb", "remote_usd", "subaccount_credit"]
    rows: List[List[object]] = []
    for stats in report.partitions:
        rows.append([
            stats.partition_index,
            stats.queries_served,
            stats.local_structures,
            stats.peak_cache_bytes / (1024.0 ** 2),
            stats.remote_hits,
            stats.remote_bytes / (1024.0 ** 2),
            stats.remote_dollars,
            stats.subaccount_credit,
        ])
    config = report.cell.config
    title = (f"Cache partitions - {config.scheme} x "
             f"{report.partition_count} partitions "
             f"(conservation: exact, {report.barriers_verified} barriers; "
             f"directory: {report.directory_size} entries; "
             f"directory bytes published: {report.directory_bytes_published} "
             f"vs {report.directory_bytes_full} full; "
             f"remote surcharge: ${report.remote_dollars_paid:.4f})")
    return format_table(headers, rows, title=title)


def distcache_divergence_table(report: DistCacheCellReport) -> Optional[str]:
    """Partitioned versus global-cache metrics for the same seed.

    Returns ``None`` when the report carries no baseline (single
    partition, or comparison disabled).
    """
    baseline = report.baseline
    if baseline is None:
        return None
    partitioned = report.cell.summary
    headers = ["metric", "global", "partitioned", "delta"]
    rows: List[List[object]] = []
    for label, attribute in (
            ("cache_hit_rate", "cache_hit_rate"),
            ("operating_cost", "operating_cost"),
            ("mean_response_s", "mean_response_time_s"),
            ("p95_response_s", "p95_response_time_s"),
            ("total_charge", "total_charge"),
            ("builds", "builds"),
            ("evictions", "evictions")):
        reference = getattr(baseline, attribute)
        observed = getattr(partitioned, attribute)
        rows.append([label, reference, observed, observed - reference])
    rows.append(["remote_hits", 0, report.remote_hit_count,
                 report.remote_hit_count])
    title = (f"Divergence vs global cache - {partitioned.scheme_name} "
             f"(seed {report.cell.config.seed}; partitioned semantics, "
             f"see docs/distcache.md)")
    return format_table(headers, rows, title=title)


def distcache_placement_table(report: DistCacheCellReport) -> Optional[str]:
    """Per-barrier placement and directory-publication accounting.

    Returns ``None`` for ``--placement hash`` runs: the section is new
    with adaptive placement, and hash-mode output is pinned byte-identical
    to the pre-placement runner.
    """
    if report.placement != "adaptive":
        return None
    headers = ["barrier", "entries", "adds", "removes", "moves",
               "delta_bytes", "full_bytes", "published", "handoffs"]
    handoffs_by_epoch = {}
    for record in report.handoffs:
        handoffs_by_epoch[record.epoch] = (
            handoffs_by_epoch.get(record.epoch, 0) + 1)
    rows: List[List[object]] = []
    for pub in report.publications:
        rows.append([
            pub.epoch,
            pub.entries,
            pub.adds,
            pub.removes,
            pub.moves,
            pub.delta_bytes,
            pub.full_bytes,
            "full" if pub.anchored else "delta",
            handoffs_by_epoch.get(pub.epoch, 0),
        ])
    title = (f"Placement - adaptive (handoffs: {report.handoff_count} "
             f"applied over {report.barriers_verified} barriers; "
             f"threshold ${report.handoff_threshold:g}/epoch; "
             f"conservation: exact)")
    return format_table(headers, rows, title=title)
