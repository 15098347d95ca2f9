"""Zero-perturbation observability: traces, metrics, manifests, reports.

The subsystem has five layers (see ``docs/observability.md``):

* :mod:`repro.obs.trace` — the one :class:`TraceRecorder` and the kernel
  observer, attached through the existing ``run(observers=...)`` hook plus
  the trace attach points of the engine, cache, batch scheduler, shard
  workers, and the partitioned runner. One recorder holds the per-source
  counters, the event log (kept for ``--trace PATH`` only) and the
  per-epoch barrier samples (taken for ``--metrics PATH`` only), and
  writes both JSONL artifacts. The hard invariant: enabling a recorder
  leaves every table, ledger, and merged report **byte-identical** —
  recorders are read-only and never touch RNG state or account
  arithmetic; a disabled component pays one attribute check.
* :mod:`repro.obs.metrics` — the settlement-barrier sampler that reads
  engine/cache/economy gauges into the recorder's samples under the same
  zero-perturbation contract, and :func:`attach_observability`, the one
  helper every execution path attaches a recorder with.
* :mod:`repro.obs.manifest` — the :class:`RunManifest` serialized next to
  every trace/metrics/report artifact (version, seed, frozen-config hash,
  scheme set, interpreter versions, git sha, mode flags, per-phase
  wall-clock, optional cProfile hotspots).
* :mod:`repro.obs.history` — the append-only bench history store
  (``benchmarks/history/*.jsonl``) and the regression-delta math behind
  ``repro report --baseline``.
* :mod:`repro.obs.report` — the ``repro report`` pipeline: schema-validated
  ingest of the ``BENCH_*.json`` perf history plus trace/metrics artifacts,
  optional bench-to-bench regression gates against the history store,
  rendered into versioned JSON + markdown.
"""

from repro.obs.history import (
    HISTORY_SCHEMA_VERSION,
    HistoryRecord,
    MetricDelta,
    RegressionGates,
    append_bench_history,
    bench_config_hash,
    compute_deltas,
    history_metrics,
    latest_comparable,
    load_history,
    record_from_bench,
)
from repro.obs.manifest import (
    RunManifest,
    build_manifest,
    config_hash,
    profile_hotspots,
)
from repro.obs.metrics import attach_observability
from repro.obs.report import (
    BENCH_NAMES,
    REPORT_SCHEMA_VERSION,
    BenchIngest,
    ingest_bench_files,
    render_report,
    write_report_artifacts,
)
from repro.obs.schema import (
    validate_bench,
    validate_history_record,
    validate_report,
)
from repro.obs.trace import (
    METRICS_SCHEMA_VERSION,
    TRACE_SCHEMA_VERSION,
    KernelTraceObserver,
    TraceRecorder,
)

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "TraceRecorder",
    "KernelTraceObserver",
    "METRICS_SCHEMA_VERSION",
    "attach_observability",
    "RunManifest",
    "build_manifest",
    "config_hash",
    "profile_hotspots",
    "HISTORY_SCHEMA_VERSION",
    "HistoryRecord",
    "MetricDelta",
    "RegressionGates",
    "append_bench_history",
    "bench_config_hash",
    "compute_deltas",
    "history_metrics",
    "latest_comparable",
    "load_history",
    "record_from_bench",
    "BENCH_NAMES",
    "REPORT_SCHEMA_VERSION",
    "BenchIngest",
    "ingest_bench_files",
    "render_report",
    "write_report_artifacts",
    "validate_bench",
    "validate_history_record",
    "validate_report",
]
