"""Zero-perturbation observability: traces, metrics, manifests, reports.

The subsystem has four layers (see ``docs/observability.md``):

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
* :mod:`repro.obs.report` — the ``repro report`` pipeline: summaries of
  trace/metrics artifacts, rendered into versioned JSON + markdown.
"""

from repro.obs.manifest import (
    RunManifest,
    build_manifest,
    config_hash,
    profile_hotspots,
)
from repro.obs.metrics import attach_observability
from repro.obs.report import (
    REPORT_SCHEMA_VERSION,
    render_report,
    write_report_artifacts,
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
    "REPORT_SCHEMA_VERSION",
    "render_report",
    "write_report_artifacts",
]
