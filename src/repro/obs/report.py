"""The ``repro report`` pipeline: trace/metrics summaries as versioned
JSON + markdown artifacts.

Summarizes the ``*.jsonl`` artifacts that ``--trace`` and ``--metrics``
write — event and counter counts, sources, and the memory gauges of the
metrics samples — and renders two artifacts:

* ``report.json`` — a versioned machine-readable document;
* ``report.md`` — a markdown view with one line per artifact and the
  warnings (unreadable artifacts, schema-version mismatches), which are
  fail-soft.

A ``report.manifest.json`` run manifest is written next to them.
Regression gating is not the report's job: ``benchmarks/e2e/run.py
compare`` is the one regression gate.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.manifest import build_manifest
from repro.obs.trace import METRICS_SCHEMA_VERSION, TRACE_SCHEMA_VERSION

#: Bumped whenever report.json's shape changes incompatibly. v3 dropped
#: the bench-file sections (``benches``, ``summary``, ``baseline`` and
#: ``grids``): the document carries trace/metrics summaries only.
REPORT_SCHEMA_VERSION = 3


def _trace_summary(path: str) -> Dict[str, object]:
    """Summarize one ``*.jsonl`` trace artifact, fail-soft."""
    summary: Dict[str, object] = {"path": path}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle.read().splitlines() if line]
    except OSError as exc:
        summary["problem"] = f"unreadable: {exc}"
        return summary
    header: Dict[str, object] = {}
    counters = 0
    events = 0
    peak_live: Optional[int] = None
    peak_rss: Optional[int] = None
    for index, line in enumerate(lines):
        try:
            record = json.loads(line)
        except ValueError:
            summary["problem"] = f"line {index + 1} is not valid JSON"
            return summary
        kind = record.get("kind")
        if index == 0 and kind in ("trace_header", "metrics_header"):
            header = record
        elif kind == "counter":
            counters += 1
        else:
            events += 1
            if kind == "sample":
                # Memory-budget gauges sampled at settlement barriers
                # (streamed runs): report the run-wide maxima so the CI
                # memory lane can read them off one report field.
                live = record.get("live_tenants")
                if isinstance(live, int):
                    peak_live = max(peak_live or 0, live)
                rss = record.get("peak_rss_bytes")
                if isinstance(rss, int):
                    peak_rss = max(peak_rss or 0, rss)
    summary["schema_version"] = header.get("schema_version")
    summary["sources"] = header.get("sources", [])
    summary["events"] = events
    summary["counters"] = counters
    kind = header.get("kind")
    if kind == "metrics_header":
        # Metrics timeseries share the JSONL artifact surface; their
        # event lines are per-epoch samples.
        summary["artifact"] = "metrics"
        if peak_live is not None:
            summary["peak_live_tenants"] = peak_live
        if peak_rss is not None:
            summary["peak_rss_bytes"] = peak_rss
        if header.get("schema_version") != METRICS_SCHEMA_VERSION:
            summary["problem"] = (
                f"metrics schema version {header.get('schema_version')!r} "
                f"!= {METRICS_SCHEMA_VERSION}")
    else:
        summary["artifact"] = "trace"
        if header.get("schema_version") != TRACE_SCHEMA_VERSION:
            summary["problem"] = (
                f"trace schema version {header.get('schema_version')!r} != "
                f"{TRACE_SCHEMA_VERSION}")
    return summary


def render_report(trace_paths: Sequence[str]
                  ) -> Tuple[Dict[str, object], str]:
    """Render the report document and its markdown view.

    Args:
        trace_paths: ``*.jsonl`` trace/metrics artifacts to summarize.

    Returns:
        ``(report, markdown)``; an artifact that cannot be read or parsed
        becomes a warning, never an exception.
    """
    from repro import __version__

    traces = [_trace_summary(path) for path in trace_paths]
    warnings: List[str] = [f"{trace['path']}: {trace['problem']}"
                           for trace in traces if trace.get("problem")]
    report: Dict[str, object] = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "generator": f"repro {__version__}",
        "traces": traces,
        "warnings": warnings,
    }
    return report, _render_markdown(report)


def _render_markdown(report: Mapping[str, object]) -> str:
    """The markdown view of a rendered report document."""
    lines = [
        "# Run report",
        "",
        f"Generated by {report['generator']} "
        f"(report schema v{report['schema_version']}).",
    ]
    traces = report.get("traces") or []
    if traces:
        lines.extend(["", "## Traces", ""])
        for trace in traces:
            problem = trace.get("problem")
            status = f"problem: {problem}" if problem else (
                f"{trace.get('events', 0)} events, "
                f"{trace.get('counters', 0)} counters, "
                f"sources {trace.get('sources')}")
            if not problem and "peak_live_tenants" in trace:
                status += (f", peak live tenants "
                           f"{trace['peak_live_tenants']}")
            if not problem and "peak_rss_bytes" in trace:
                status += (f", peak RSS "
                           f"{trace['peak_rss_bytes'] / 2**20:.0f} MiB")
            lines.append(f"- `{trace['path']}` — {status}")
    warnings = report.get("warnings") or []
    if warnings:
        lines.extend(["", "## Warnings", ""])
        for warning in warnings:
            lines.append(f"- {warning}")
    lines.append("")
    return "\n".join(lines)


def write_report_artifacts(trace_paths: Sequence[str],
                           out_dir: str,
                           force: bool = False) -> Dict[str, str]:
    """Write ``report.json`` / ``report.md`` / ``report.manifest.json``.

    Args:
        trace_paths: ``*.jsonl`` trace/metrics artifacts to summarize.
        out_dir: output directory (created if needed).
        force: overwrite existing artifacts.

    Returns:
        Mapping of artifact kind to written path.

    Raises:
        FileExistsError: an artifact exists and ``force`` is off.
    """
    report, markdown = render_report(trace_paths)
    os.makedirs(out_dir, exist_ok=True)
    targets = {
        "json": os.path.join(out_dir, "report.json"),
        "markdown": os.path.join(out_dir, "report.md"),
        "manifest": os.path.join(out_dir, "report.manifest.json"),
    }
    if not force:
        for path in targets.values():
            if os.path.exists(path):
                raise FileExistsError(
                    f"refusing to overwrite {path} (pass --force)")
    with open(targets["json"], "w", encoding="utf-8") as handle:
        handle.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    with open(targets["markdown"], "w", encoding="utf-8") as handle:
        handle.write(markdown)
    manifest = build_manifest(
        "report",
        config={"trace_paths": sorted(os.path.basename(p)
                                      for p in trace_paths)},
        extra={"report_schema_version": REPORT_SCHEMA_VERSION,
               "warnings": len(report["warnings"])},
    )
    manifest.write(targets["manifest"])
    return targets
