"""The ``repro report`` pipeline: versioned JSON + markdown artifacts.

Ingests the repo's perf history — the checked-in ``BENCH_*.json``
files (or freshly produced ones from CI's bench-smoke job) plus any
``*.jsonl`` trace artifacts — validates every document against the
declarative schemas in :mod:`repro.obs.schema`, extracts a per-benchmark
headline, and renders two artifacts:

* ``report.json`` — a versioned, schema-valid machine-readable document
  (the report validates itself before writing; a self-check failure is a
  hard error, unlike ingest problems which are fail-soft warnings).
* ``report.md`` — a manifest-style markdown summary table covering every
  expected bench file, flagging missing/legacy/invalid ones, followed by
  one headline section per benchmark.

A ``report.manifest.json`` run manifest is written next to them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.history import (
    RegressionGates,
    bench_config_hash,
    compute_deltas,
    history_metrics,
    latest_comparable,
    load_history,
)
from repro.obs.manifest import build_manifest
from repro.obs.schema import BENCH_GATES, validate_bench, validate_report
from repro.obs.trace import METRICS_SCHEMA_VERSION, TRACE_SCHEMA_VERSION

#: Bumped whenever report.json's shape changes incompatibly.
#: v2 added the optional ``baseline`` (bench-to-bench regression deltas)
#: and ``grids`` (figure/headline tables) sections plus the delta/perf
#: summary columns rendered when a baseline is supplied.
REPORT_SCHEMA_VERSION = 2

#: The one metric per benchmark kind the summary table's delta column
#: shows (the full per-metric delta list lives in the ``baseline``
#: section). Names match :data:`repro.obs.history.METRIC_DIRECTIONS`.
PRIMARY_METRIC: Dict[str, str] = {
    "placement": "remote_surcharge_dollars",
}

#: The benchmark kinds the perf history is expected to cover, mapped to
#: their canonical checked-in file names. Per-mode throughput is timed
#: by the end-to-end benchmark (``BENCHMARK.json``), not here.
BENCH_NAMES: Tuple[Tuple[str, str], ...] = (
    ("placement", "BENCH_placement.json"),
)


@dataclass
class BenchIngest:
    """One ingested bench file and its validation outcome."""

    kind: str
    path: str
    found: bool = False
    valid: bool = False
    problems: List[str] = field(default_factory=list)
    data: Optional[Dict[str, object]] = None

    @property
    def status(self) -> str:
        """``ok`` / ``invalid`` / ``missing`` for the summary table."""
        if not self.found:
            return "missing"
        return "ok" if self.valid else "invalid"


def _kind_from_name(name: str) -> Optional[str]:
    """The benchmark kind a file name claims, or ``None``."""
    base = os.path.basename(name)
    for kind, canonical in BENCH_NAMES:
        if base == canonical or base == canonical.lower():
            return kind
    return None


def ingest_bench_files(paths: Sequence[str]) -> List[BenchIngest]:
    """Read and validate bench JSON files, fail-soft.

    Every expected benchmark kind yields exactly one :class:`BenchIngest`
    (marked missing when no supplied path covers it), so the summary table
    always renders one row per kind. Unreadable or legacy files are reported
    as problems, never raised.
    """
    by_kind: Dict[str, BenchIngest] = {
        kind: BenchIngest(kind=kind, path=canonical)
        for kind, canonical in BENCH_NAMES
    }
    extras: List[BenchIngest] = []
    for path in paths:
        expected_kind = _kind_from_name(path)
        ingest = BenchIngest(kind=expected_kind or os.path.basename(path),
                             path=path)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except OSError as exc:
            ingest.problems.append(f"unreadable: {exc}")
        except ValueError as exc:
            ingest.found = True
            ingest.problems.append(f"not valid JSON: {exc}")
        else:
            ingest.found = True
            ingest.problems.extend(validate_bench(document, expected_kind))
            ingest.valid = not ingest.problems
            if isinstance(document, Mapping):
                ingest.data = dict(document)
                if expected_kind is None:
                    benchmark = document.get("benchmark")
                    if isinstance(benchmark, str):
                        ingest.kind = benchmark
        slot = by_kind.get(ingest.kind)
        if slot is not None and not slot.found:
            by_kind[ingest.kind] = ingest
        else:
            extras.append(ingest)
    return [by_kind[kind] for kind, _ in BENCH_NAMES] + extras


def _headline(ingest: BenchIngest) -> Dict[str, object]:
    """Machine-readable per-benchmark headline numbers."""
    data = ingest.data
    if not data or not ingest.valid:
        return {}
    runs = [run for run in data.get("runs", ()) if isinstance(run, Mapping)]
    headline: Dict[str, object] = {"runs": len(runs)}
    gate = BENCH_GATES.get(ingest.kind)
    if gate is not None:
        gate_name, predicate = gate
        headline["gate"] = gate_name
        headline["gate_ok"] = bool(predicate(data))
    if ingest.kind == "placement":
        adaptive = [run for run in runs if run.get("placement") == "adaptive"]
        headline["handoffs"] = sum(run.get("handoffs", 0) for run in adaptive)
        headline["remote_hits"] = sum(
            run.get("remote_hits", 0) for run in adaptive)
    return headline


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


def _baseline_section(ingests: Sequence[BenchIngest],
                      baseline_dir: str,
                      gates: RegressionGates,
                      warnings: List[str]) -> Dict[str, object]:
    """Compare every valid bench against its newest comparable record.

    Incomparable benches (no history, or every record's config hash
    differs — e.g. CI's reduced sizes against the checked-in full-size
    history) render as ``comparable: false`` with no warning: a size
    mismatch is expected, a slowdown is not. Warn/fail deltas append to
    the report's warnings so CI can grep one place.
    """
    records, problems = load_history(baseline_dir)
    warnings.extend(problems)
    benches: Dict[str, object] = {}
    for ingest in ingests:
        if not ingest.valid or not ingest.data:
            continue
        entry: Dict[str, object] = {"comparable": False, "deltas": []}
        history = records.get(ingest.kind, [])
        baseline = latest_comparable(
            history, bench_config_hash(ingest.data))
        if baseline is None:
            entry["reason"] = (
                "no comparable history record (same config hash)"
                if history else "no history records for this benchmark")
        else:
            deltas = compute_deltas(history_metrics(ingest.data),
                                    baseline, gates)
            entry.update({
                "comparable": True,
                "baseline_git_sha": baseline.git_sha,
                "baseline_recorded_at": baseline.recorded_at,
                "deltas": [
                    {"metric": delta.name,
                     "current": delta.current,
                     "baseline": delta.baseline,
                     "change": delta.change,
                     "regression": delta.regression,
                     "status": delta.status}
                    for delta in deltas
                ],
            })
            for delta in deltas:
                if delta.status in ("warn", "fail"):
                    warnings.append(
                        f"{ingest.kind}: perf regression "
                        f"{delta.status}: {delta.name} "
                        f"{delta.baseline:g} -> {delta.current:g} "
                        f"({delta.change:+.1%} vs baseline "
                        f"{baseline.git_sha or 'unknown'})")
        benches[ingest.kind] = entry
    return {
        "dir": baseline_dir,
        "gates": {"warn_slowdown": gates.warn_slowdown,
                  "fail_slowdown": gates.fail_slowdown},
        "problems": problems,
        "benches": benches,
    }


def _delta_cells(kind: str,
                 baseline_section: Optional[Mapping[str, object]]
                 ) -> Tuple[str, str]:
    """The summary table's ``(delta, perf gate)`` cells for one bench."""
    if baseline_section is None:
        return "-", "-"
    entry = baseline_section["benches"].get(kind)
    if not entry or not entry.get("comparable"):
        return "-", "-"
    deltas = entry.get("deltas") or []
    primary_name = PRIMARY_METRIC.get(kind)
    primary = next((delta for delta in deltas
                    if delta["metric"] == primary_name), None)
    if primary is None:
        gated = [d for d in deltas if d.get("regression") is not None]
        primary = gated[0] if gated else None
    cell = f"{primary['change']:+.1%}" if primary else "-"
    worst = "ok"
    for delta in deltas:
        status = delta.get("status")
        if status == "fail":
            worst = "FAIL"
            break
        if status == "warn":
            worst = "warn"
    if not any(d.get("regression") is not None for d in deltas):
        worst = "-"
    return cell, worst


def render_report(bench_paths: Sequence[str],
                  trace_paths: Sequence[str] = (),
                  baseline_dir: Optional[str] = None,
                  gates: Optional[RegressionGates] = None,
                  grid_tables: Optional[Mapping[str, str]] = None,
                  grid_profile: Optional[str] = None
                  ) -> Tuple[Dict[str, object], str]:
    """Render the report document and its markdown view.

    Args:
        bench_paths: BENCH_*.json files to ingest (fail-soft).
        trace_paths: ``*.jsonl`` trace/metrics artifacts to summarize.
        baseline_dir: bench-history directory; when set, every valid
            bench is compared against its newest comparable record and
            the summary table gains delta + perf-gate columns.
        gates: warn/fail slowdown thresholds (defaults per
            :class:`~repro.obs.history.RegressionGates`).
        grid_tables: pre-rendered figure/headline tables to fold in as
            the ``grids`` section (keyed ``headline``/``figure4``/...).
        grid_profile: the experiment profile the grid tables ran.

    Returns:
        ``(report, markdown)`` where ``report`` is schema-valid against
        :func:`repro.obs.schema.validate_report` (asserted here — a
        self-check failure is a bug, not an ingest problem).
    """
    from repro import __version__

    ingests = ingest_bench_files(bench_paths)
    warnings: List[str] = []

    baseline: Optional[Dict[str, object]] = None
    if baseline_dir is not None:
        baseline = _baseline_section(ingests, baseline_dir,
                                     gates or RegressionGates(), warnings)

    benches: Dict[str, object] = {}
    summary_rows: List[Dict[str, object]] = []
    for ingest in ingests:
        headline = _headline(ingest)
        benches[ingest.kind] = {
            "path": ingest.path,
            "valid": ingest.valid,
            "problems": list(ingest.problems),
            "headline": headline,
        }
        row: Dict[str, object] = {
            "benchmark": ingest.kind,
            "file": os.path.basename(ingest.path),
            "status": ingest.status,
            "runs": headline.get("runs", 0),
            "gate": headline.get("gate", "-"),
            "gate_ok": headline.get("gate_ok"),
        }
        if baseline is not None:
            delta_cell, perf_cell = _delta_cells(ingest.kind, baseline)
            row["delta"] = delta_cell
            row["perf"] = perf_cell
        summary_rows.append(row)
        if ingest.status == "missing":
            warnings.append(
                f"bench file for {ingest.kind!r} not supplied "
                f"(expected {ingest.path})")
        elif not ingest.valid:
            for problem in ingest.problems:
                warnings.append(f"{ingest.path}: {problem}")

    traces = [_trace_summary(path) for path in trace_paths]
    for trace in traces:
        problem = trace.get("problem")
        if problem:
            warnings.append(f"{trace['path']}: {problem}")

    report: Dict[str, object] = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "generator": f"repro {__version__}",
        "benches": benches,
        "summary": summary_rows,
        "traces": traces,
        "warnings": warnings,
    }
    if baseline is not None:
        report["baseline"] = baseline
    if grid_tables:
        report["grids"] = {
            "profile": grid_profile,
            "tables": dict(grid_tables),
        }
    self_check = validate_report(report)
    if self_check:  # pragma: no cover - guarded by the schema tests
        raise AssertionError(
            "rendered report failed its own schema: " + "; ".join(self_check))
    return report, _render_markdown(report)


def _gate_cell(row: Mapping[str, object]) -> str:
    gate_ok = row.get("gate_ok")
    if gate_ok is None:
        return "-"
    return "pass" if gate_ok else "FAIL"


def _render_markdown(report: Mapping[str, object]) -> str:
    """The markdown view of a rendered report document.

    The delta/perf columns render only when the report carries a
    ``baseline`` section, so baseline-less reports stay byte-identical
    to schema v1 output.
    """
    baseline = report.get("baseline")
    lines = [
        "# Perf-history report",
        "",
        f"Generated by {report['generator']} "
        f"(report schema v{report['schema_version']}).",
        "",
        "## Bench summary",
        "",
    ]
    if baseline is not None:
        lines.extend([
            "| benchmark | file | status | runs | gate | gate ok "
            "| delta | perf |",
            "| --- | --- | --- | --- | --- | --- | --- | --- |",
        ])
    else:
        lines.extend([
            "| benchmark | file | status | runs | gate | gate ok |",
            "| --- | --- | --- | --- | --- | --- |",
        ])
    for row in report["summary"]:
        cells = (
            f"| {row['benchmark']} | {row['file']} | {row['status']} "
            f"| {row['runs']} | {row['gate']} | {_gate_cell(row)} |")
        if baseline is not None:
            cells += f" {row.get('delta', '-')} | {row.get('perf', '-')} |"
        lines.append(cells)
    if baseline is not None:
        lines.extend([
            "", "## Baseline deltas", "",
            f"Compared against history in `{baseline['dir']}` "
            f"(warn at {baseline['gates']['warn_slowdown']:.0%}, fail at "
            f"{baseline['gates']['fail_slowdown']:.0%} regression).",
            "",
        ])
        for kind, entry in sorted(baseline["benches"].items()):
            if not entry.get("comparable"):
                lines.append(
                    f"- {kind}: not comparable — "
                    f"{entry.get('reason', 'unknown reason')}")
                continue
            sha = entry.get("baseline_git_sha") or "unknown"
            lines.append(
                f"- {kind} (baseline {sha} @ "
                f"{entry.get('baseline_recorded_at')}):")
            for delta in entry.get("deltas", []):
                status = delta["status"]
                marker = status.upper() if status == "fail" else status
                lines.append(
                    f"  - {delta['metric']}: {delta['baseline']:g} -> "
                    f"{delta['current']:g} ({delta['change']:+.1%}) "
                    f"[{marker}]")
    for kind, entry in report["benches"].items():
        headline = entry.get("headline") or {}
        detail = {key: value for key, value in headline.items()
                  if key not in ("runs", "gate", "gate_ok")}
        if not detail:
            continue
        lines.extend(["", f"## {kind}", ""])
        for key in sorted(detail):
            lines.append(f"- {key}: {detail[key]}")
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
    grids = report.get("grids")
    if grids:
        profile = grids.get("profile")
        lines.extend([
            "", "## Grids", "",
            f"Figure/headline tables (profile: {profile or 'default'}).",
        ])
        for name, table in sorted(grids.get("tables", {}).items()):
            lines.extend(["", f"### {name}", "", "```", table.rstrip(),
                          "```"])
    warnings = report.get("warnings") or []
    if warnings:
        lines.extend(["", "## Warnings", ""])
        for warning in warnings:
            lines.append(f"- {warning}")
    lines.append("")
    return "\n".join(lines)


def write_report_artifacts(bench_paths: Sequence[str],
                           out_dir: str,
                           trace_paths: Sequence[str] = (),
                           force: bool = False,
                           baseline_dir: Optional[str] = None,
                           gates: Optional[RegressionGates] = None,
                           grid_tables: Optional[Mapping[str, str]] = None,
                           grid_profile: Optional[str] = None
                           ) -> Dict[str, str]:
    """Write ``report.json`` / ``report.md`` / ``report.manifest.json``.

    Args:
        bench_paths: BENCH_*.json files to ingest (fail-soft).
        out_dir: output directory (created if needed).
        trace_paths: optional ``*.jsonl`` trace artifacts to summarize.
        force: overwrite existing artifacts.
        baseline_dir: optional bench-history directory for regression
            deltas (see :func:`render_report`).
        gates: warn/fail slowdown thresholds for the baseline deltas.
        grid_tables: optional pre-rendered figure/headline tables.
        grid_profile: the experiment profile the grid tables ran.

    Returns:
        Mapping of artifact kind to written path.

    Raises:
        FileExistsError: an artifact exists and ``force`` is off.
    """
    report, markdown = render_report(
        bench_paths, trace_paths, baseline_dir=baseline_dir, gates=gates,
        grid_tables=grid_tables, grid_profile=grid_profile)
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
    effective_gates = gates or RegressionGates()
    manifest = build_manifest(
        "report",
        config={"bench_paths": sorted(os.path.basename(p)
                                      for p in bench_paths),
                "trace_paths": sorted(os.path.basename(p)
                                      for p in trace_paths),
                "baseline_dir": baseline_dir,
                "gates": ({"warn_slowdown": effective_gates.warn_slowdown,
                           "fail_slowdown": effective_gates.fail_slowdown}
                          if baseline_dir is not None else None),
                "grids": sorted(grid_tables) if grid_tables else None},
        extra={"report_schema_version": REPORT_SCHEMA_VERSION,
               "warnings": len(report["warnings"])},
    )
    manifest.write(targets["manifest"])
    return targets
