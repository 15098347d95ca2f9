"""Outside-in layer clock for the end-to-end benchmark.

The clock wraps public callables of the ``repro`` package with
``setattr``: methods on their class and on every loaded subclass that
overrides them, functions on each module that imports them. Nothing under
``src/`` changes, and :meth:`Patches.restore` puts every original back.

All wrappers of one process share one call stack. A call's self time is
its duration minus the time of the wrapped calls inside it, and the whole
workload runs inside a root frame, so the self times of all frames add up
to the measured wall; the root's own self time is the part no layer
claims (``trace.unattributed_s``). Counts are taken only at the outermost
call of a frame, so a subclass method that calls ``super()`` counts once.

Full spans, each with its parent and the query it served, are kept for
the first :data:`SPAN_QUERIES` queries plus the frames directly under the
root, capped at :data:`MAX_SPANS`.
"""

from __future__ import annotations

import functools
import json
import math
import os
import pickle
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import repro  # noqa: F401  (loads the sharding and distcache subclasses)
from repro.cache.manager import CacheManager
from repro.costmodel.execution import ExecutionCostModel
from repro.distcache import runner as distcache_runner
from repro.distcache.runner import DistCacheRunner
from repro.economy import batch as batch_module
from repro.economy import engine as engine_module
from repro.economy.account import CloudAccount
from repro.economy.batch import BatchScheduler
from repro.economy.engine import EconomyEngine
from repro.economy.investment import InvestmentPolicy
from repro.economy.pricing import PlanPricer
from repro.economy.regret import RegretTracker
from repro.economy.tenancy import TenantRegistry
from repro.planner import plan_table as plan_table_module
from repro.planner.enumerator import PlanEnumerator
from repro.planner.plan_table import PlanTableCache
from repro.experiments import shocks as shocks_module
from repro.experiments import tenants as tenants_module
from repro.sharding import coordinator as sharding_coordinator
from repro.sharding import worker as sharding_worker
from repro.simulator.kernel import SimulationKernel
from repro.system import CloudSystem
from repro.workload.generator import WorkloadGenerator
from repro.workload.grammar import ScenarioGrammar
from repro.workload.population import PopulationStream, TenantPopulation

SPAN_QUERIES = 32
MAX_SPANS = 20_000

_now = time.perf_counter


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        original = (owner.__dict__[name] if isinstance(owner, type)
                    else getattr(owner, name))
        self._undo.append((owner, name, original))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def _defining_classes(cls: type, name: str) -> List[type]:
    """``cls`` and its loaded subclasses whose own body defines ``name``."""
    found: List[type] = []
    pending = [cls]
    while pending:
        current = pending.pop()
        if current in found:
            continue
        if name in current.__dict__:
            found.append(current)
        pending.extend(current.__subclasses__())
    return found


class LayerClock:
    """Self time, inclusive time and counts per wrapped frame."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.query_s: List[float] = []
        self.peak_materialized = 0
        #: ``(layer, group, seconds with pickling, compute seconds)`` per
        #: inline pool task; tasks of one group run side by side in a pool.
        self.parallel_tasks: List[Tuple[str, object, float, float]] = []
        self.spans: List[dict] = []
        self._stack: List[list] = []
        self._origin = _now()
        self._next_span = 0
        self._sampled_query: Optional[int] = None

    # -- frames ----------------------------------------------------------------

    def frame(self, name: str, fn: Callable,
              hook: Optional[Callable] = None,
              sample_query: bool = False) -> Callable:
        """Wrap ``fn`` so each call is a frame called ``name``.

        ``hook(clock, args, result, seconds)`` runs after the outermost
        call of the frame; ``sample_query`` marks the frame that serves
        one query, whose subtree is kept as spans for the first queries.
        """
        clock = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = clock._stack
            parent = stack[-1] if stack else None
            clock._next_span += 1
            frame = [name, 0.0, 0.0, clock._next_span]
            sampling_here = (sample_query and clock._sampled_query is None
                             and clock.counts[name] < SPAN_QUERIES)
            if sampling_here:
                clock._sampled_query = args[1].query_id
            stack.append(frame)
            start = frame[1] = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                duration = end - start
                clock.self_s[name] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                clock._record_span(frame, parent, end, len(stack))
                if sampling_here:
                    clock._sampled_query = None
            if parent is None or parent[0] != name:
                clock.counts[name] += 1
                clock.inclusive_s[name] += duration
                if hook is not None:
                    hook(clock, args, result, duration)
            return result

        return wrapper

    def _record_span(self, frame: list, parent: Optional[list], end: float,
                     depth: int) -> None:
        if len(self.spans) >= MAX_SPANS:
            return
        if self._sampled_query is None and depth > 1:
            return
        self.spans.append({
            "id": frame[3],
            "parent": parent[3] if parent is not None else None,
            "name": frame[0],
            "start_us": round((frame[1] - self._origin) * 1e6, 1),
            "dur_us": round((end - frame[1]) * 1e6, 1),
            "query": self._sampled_query,
        })

    def timed_iterator(self, name: str, iterator: Iterable) -> Iterable:
        """Yield from ``iterator``, timing each pull as a ``name`` frame."""
        pull = self.frame(name, iter(iterator).__next__)
        while True:
            try:
                item = pull()
            except StopIteration:
                return
            yield item

    def measure(self, fn: Callable):
        """Run ``fn`` as the root frame; returns ``(result, wall seconds)``."""
        root = self.frame("run", fn)
        start = _now()
        result = root()
        return result, _now() - start

    # -- output ----------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """One JSON line per span, after a header with every frame total."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "self_s": dict(sorted(self.self_s.items())),
                "inclusive_s": dict(sorted(self.inclusive_s.items())),
                "counts": dict(sorted(self.counts.items())),
            }) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


# -- hooks ---------------------------------------------------------------------


def _query_latency(clock: LayerClock, args, result, seconds: float) -> None:
    clock.query_s.append(seconds)


def _kernel_events(clock: LayerClock, args, result, seconds: float) -> None:
    clock.counts["simulator.events"] += result


def _vectorized_cells(clock: LayerClock, args, result, seconds: float) -> None:
    table, queries = args[0], args[1]
    clock.counts["costmodel.vectorized_cells"] += (table.row_count
                                                   * len(queries))


def _plans_priced(clock: LayerClock, args, result, seconds: float) -> None:
    clock.counts["pricing.plans_priced"] += len(args[1])


def _negotiation_case(clock: LayerClock, args, result, seconds: float) -> None:
    clock.counts[f"negotiation.case_{result.case.name.lower()}"] += 1


def _batch_view(clock: LayerClock, args, result, seconds: float) -> None:
    clock.counts["batch.fallbacks" if result is None else "batch.views"] += 1


def _activation(clock: LayerClock, args, result, seconds: float) -> None:
    registry = args[0]
    materialized = getattr(registry, "peak_materialized", None)
    if materialized is None:
        materialized = len(registry)
    clock.peak_materialized = max(clock.peak_materialized, materialized)


#: ``(owner, attribute, frame name, hook)`` for every wrapped callable. A
#: class owner is wrapped on each loaded subclass that overrides the
#: method; a module owner is the module whose global the program calls.
LAYERS = (
    (WorkloadGenerator, "generate", "workload:generate", None),
    (ScenarioGrammar, "compile", "workload:compile", None),
    (TenantPopulation, "populate", "workload:populate", None),
    (tenants_module, "apply_tenant_tiers", "workload:tiers", None),
    (CloudSystem, "__init__", "system:build", None),
    (SimulationKernel, "run", "simulator:run", _kernel_events),
    (tenants_module, "sorted_breakdowns", "simulator:breakdown", None),
    (shocks_module, "sorted_breakdowns", "simulator:breakdown", None),
    (sharding_worker, "sorted_breakdowns", "simulator:breakdown", None),
    (shocks_module, "ledger_fold", "audit:ledger_fold", None),
    (EconomyEngine, "process_query", "engine:process_query", _query_latency),
    (PlanEnumerator, "enumerate", "planner:enumerate", None),
    (engine_module, "skyline_filter", "planner:skyline_filter", None),
    (engine_module, "skyline_indices", "planner:skyline_indices", None),
    (PlanTableCache, "table_for", "planner:table_for", None),
    (plan_table_module, "build_plan_table", "planner:build_plan_table", None),
    (ExecutionCostModel, "cache_execution", "costmodel:cache_execution",
     None),
    (ExecutionCostModel, "backend_execution", "costmodel:backend_execution",
     None),
    (batch_module, "evaluate_plan_table", "costmodel:evaluate_plan_table",
     _vectorized_cells),
    (PlanPricer, "price_plans", "pricing:price_plans", _plans_priced),
    (engine_module, "negotiate", "negotiation:negotiate", _negotiation_case),
    (BatchScheduler, "prime", "batch:prime", None),
    (BatchScheduler, "view_for", "batch:view_for", _batch_view),
    (CloudAccount, "deposit", "account:deposit", None),
    (CloudAccount, "withdraw", "account:withdraw", None),
    (RegretTracker, "add", "regret:add", None),
    (RegretTracker, "distribute", "regret:distribute", None),
    (RegretTracker, "reset", "regret:reset", None),
    (InvestmentPolicy, "candidates", "investment:candidates", None),
    (InvestmentPolicy, "evaluate", "investment:evaluate", None),
    (TenantRegistry, "register_all", "tenancy:register_all", None),
    (TenantRegistry, "ensure", "tenancy:ensure", None),
    (TenantRegistry, "activate", "tenancy:activate", _activation),
    (TenantRegistry, "deactivate", "tenancy:deactivate", None),
    (TenantRegistry, "budget_for", "tenancy:budget_for", None),
    (TenantRegistry, "charge", "tenancy:charge", None),
    (TenantRegistry, "record_regret", "tenancy:record_regret", None),
    (TenantRegistry, "reset_regret", "tenancy:reset_regret", None),
    (CacheManager, "admit", "cache:admit", None),
    (CacheManager, "evict", "cache:evict", None),
    (CacheManager, "evict_failed_structures",
     "cache:evict_failed_structures", None),
    (CacheManager, "record_usage", "cache:record_usage", None),
    (CacheManager, "bill_maintenance", "cache:bill_maintenance", None),
    (CacheManager, "accrued_maintenance", "cache:accrued_maintenance", None),
    (CacheManager, "record_amortized_recovery",
     "cache:record_amortized_recovery", None),
    (sharding_coordinator, "merge_shard_results", "sharding:merge", None),
    (DistCacheRunner, "run_cell", "distcache:run_cell", None),
)


def _install(patches: Patches, owner, attribute: str, wrap: Callable) -> None:
    if isinstance(owner, type):
        for cls in _defining_classes(owner, attribute):
            patches.set(cls, attribute, wrap(cls.__dict__[attribute]))
    else:
        patches.set(owner, attribute, wrap(getattr(owner, attribute)))


def _round_trip(clock: LayerClock, frame: str, payload, bytes_key: str):
    """Pickle and unpickle ``payload`` as a pool would, inside ``frame``."""

    def copy():
        data = pickle.dumps(payload)
        clock.counts[bytes_key] += len(data)
        return pickle.loads(data)

    return clock.frame(frame, copy)()


def install_layers(clock: LayerClock, inline_tasks: bool) -> Patches:
    """Wrap every layer; returns the patches to restore afterwards.

    With ``inline_tasks`` the parallel workloads run their pool tasks in
    this process, and each task and result makes the pickle round trip a
    pool would make, so pickled bytes and pickling time are measured
    alongside the compute they carry.
    """
    patches = Patches()
    for owner, attribute, name, hook in LAYERS:
        _install(patches, owner, attribute, functools.partial(
            clock.frame, name, hook=hook,
            sample_query=name == "engine:process_query"))

    def stream(original):
        @functools.wraps(original)
        def wrapper(self):
            inner = original(self)
            stack = clock._stack
            if stack and stack[-1][0] == "workload:populate":
                return inner  # the eager path: populate_s holds it
            return clock.timed_iterator("workload:stream", inner)
        return wrapper

    _install(patches, PopulationStream, "__iter__", stream)

    if inline_tasks:
        def parallel(original, layer, group_of):
            timed = clock.frame(f"{layer}:task", original)

            @functools.wraps(original)
            def wrapper(task):
                start = _now()
                task = _round_trip(clock, f"{layer}:pickle", task,
                                   f"{layer}.task_bytes")
                compute_start = _now()
                result = timed(task)
                compute = _now() - compute_start
                result = _round_trip(clock, f"{layer}:pickle", result,
                                     f"{layer}.result_bytes")
                clock.parallel_tasks.append(
                    (layer, group_of(task), _now() - start, compute))
                return result
            return wrapper

        _install(patches, sharding_coordinator, "run_shard",
                 lambda original: parallel(original, "sharding",
                                           lambda task: task.config))
        _install(patches, distcache_runner, "run_partition_epoch",
                 lambda original: parallel(original, "distcache",
                                           lambda task: task.settle_to_s))
    return patches


# -- per-layer metrics ---------------------------------------------------------


def _nearest_rank_us(values: List[float], fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(fraction * len(ordered))))
    return ordered[rank - 1] * 1e6


def critical_path_s(clock: LayerClock, wall: float, layer: str) -> float:
    """The inline wall with each group of pool tasks cut to its longest.

    Tasks of one group would run side by side in the pool, so the wall a
    pool could reach with free workers is the inline wall minus every
    task plus the slowest task of each group.
    """
    longest: Dict[object, float] = {}
    total = 0.0
    for task_layer, group, seconds, _ in clock.parallel_tasks:
        if task_layer == layer:
            total += seconds
            longest[group] = max(longest.get(group, 0.0), seconds)
    return wall - total + sum(longest.values())


def layer_values(clock: LayerClock) -> Dict[str, float]:
    """Every per-layer metric one traced run yields on its own.

    The metrics that compare runs (``trace.overhead_ratio`` and the
    ``parallel_overhead_s`` pair) are completed by the caller.
    """
    own = clock.self_s
    counts = clock.counts

    def self_of(*prefixes: str) -> float:
        return sum(seconds for name, seconds in own.items()
                   if name.startswith(prefixes))

    def tasks(layer: str) -> List[Tuple[object, float]]:
        return [(group, compute) for task_layer, group, _, compute
                in clock.parallel_tasks if task_layer == layer]

    views, fallbacks = counts["batch.views"], counts["batch.fallbacks"]
    shard_tasks = tasks("sharding")
    return {
        "workload.generate_s": self_of("workload:generate",
                                       "workload:compile"),
        "workload.populate_s": self_of("workload:populate", "workload:tiers"),
        "workload.stream_s": own["workload:stream"],
        "simulator.events": counts["simulator.events"],
        "simulator.kernel_self_s": own["simulator:run"],
        "engine.queries": counts["engine:process_query"],
        "engine.self_s": own["engine:process_query"],
        "engine.query_p50_us": _nearest_rank_us(clock.query_s, 0.50),
        "engine.query_p99_us": _nearest_rank_us(clock.query_s, 0.99),
        "planner.enumerate_calls": counts["planner:enumerate"],
        "planner.enumerate_s": own["planner:enumerate"],
        "planner.skyline_s": self_of("planner:skyline_"),
        "planner.table_lookups": counts["planner:table_for"],
        "planner.table_builds": counts["planner:build_plan_table"],
        "costmodel.estimate_calls": (counts["costmodel:cache_execution"]
                                     + counts["costmodel:backend_execution"]),
        "costmodel.estimate_s": self_of("costmodel:cache_execution",
                                        "costmodel:backend_execution"),
        "costmodel.vectorized_s": own["costmodel:evaluate_plan_table"],
        "costmodel.vectorized_cells": counts["costmodel.vectorized_cells"],
        "pricing.plans_priced": counts["pricing.plans_priced"],
        "pricing.s": self_of("pricing:"),
        "negotiation.s": self_of("negotiation:"),
        "negotiation.case_a": counts["negotiation.case_a"],
        "negotiation.case_b": counts["negotiation.case_b"],
        "negotiation.case_c": counts["negotiation.case_c"],
        "batch.prime_s": own["batch:prime"],
        "batch.views": views,
        "batch.fallbacks": fallbacks,
        "batch.fallback_ratio": (fallbacks / (views + fallbacks)
                                 if views + fallbacks else 0.0),
        "account.transactions": (counts["account:deposit"]
                                 + counts["account:withdraw"]),
        "account.s": self_of("account:"),
        "regret.s": self_of("regret:"),
        "investment.s": self_of("investment:"),
        "tenancy.s": self_of("tenancy:"),
        "tenancy.activations": counts["tenancy:activate"],
        "tenancy.peak_materialized": clock.peak_materialized,
        "cache.s": self_of("cache:"),
        "cache.admits": counts["cache:admit"],
        "cache.evictions": counts["cache:evict"],
        "sharding.shard_s_max": max((s for _, s in shard_tasks), default=0.0),
        "sharding.merge_s": own["sharding:merge"],
        "sharding.pickle_s": own["sharding:pickle"],
        "sharding.result_bytes": counts["sharding.result_bytes"],
        "distcache.epochs": len({group for group, _ in tasks("distcache")}),
        "distcache.task_bytes": counts["distcache.task_bytes"],
        "distcache.result_bytes": counts["distcache.result_bytes"],
        "distcache.pickle_s": own["distcache:pickle"],
        "distcache.epoch_compute_s": sum(s for _, s in tasks("distcache")),
        "distcache.barrier_s": own["distcache:run_cell"],
        "trace.unattributed_s": own["run"],
    }


# -- set-up marks --------------------------------------------------------------


class SetupMarks:
    """First simulated dispatch of each process, worker processes included.

    Set-up ends at the first dispatch: the entry of
    :meth:`SimulationKernel.run` (the latest over processes, since every
    shard worker replays the whole stream) or, for the partitioned cache,
    which has no kernel, the first ``run_partition_epoch``. Pool workers
    are forked after the marks are installed, inherit them, and send their
    ``perf_counter`` readings (``CLOCK_MONOTONIC``, comparable across
    processes) through a pipe.
    """

    def __init__(self) -> None:
        self._pid = os.getpid()
        self._read, self._write = os.pipe()
        self._seen: set = set()
        self.marks: List[Tuple[str, int, float]] = []
        self._patches = Patches()

    def install(self) -> None:
        marks = self

        def mark(kind: str, original: Callable) -> Callable:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                marks.note(kind)
                return original(*args, **kwargs)
            return wrapper

        _install(self._patches, SimulationKernel, "run",
                 functools.partial(mark, "dispatch"))
        _install(self._patches, distcache_runner, "run_partition_epoch",
                 functools.partial(mark, "epoch"))

    def note(self, kind: str) -> None:
        pid = os.getpid()
        if (kind, pid) in self._seen:
            return
        self._seen.add((kind, pid))
        stamp = _now()
        if pid == self._pid:
            self.marks.append((kind, pid, stamp))
        else:
            os.write(self._write, f"{kind} {pid} {stamp!r}\n".encode())

    def close(self) -> None:
        """Restore the originals and collect the workers' marks."""
        self._patches.restore()
        os.close(self._write)
        # Non-blocking: a stray process still holding the write end must
        # not hang the benchmark; every pool has been joined by now.
        os.set_blocking(self._read, False)
        chunks: List[bytes] = []
        try:
            while True:
                chunk = os.read(self._read, 65536)
                if not chunk:
                    break
                chunks.append(chunk)
        except BlockingIOError:
            pass
        finally:
            os.close(self._read)
        for line in b"".join(chunks).decode().splitlines():
            kind, pid, stamp = line.split()
            self.marks.append((kind, int(pid), float(stamp)))

    def first_dispatch(self) -> float:
        dispatches = [stamp for kind, _, stamp in self.marks
                      if kind == "dispatch"]
        if dispatches:
            return max(dispatches)
        epochs = [stamp for kind, _, stamp in self.marks if kind == "epoch"]
        if not epochs:
            raise RuntimeError("the workload never reached a dispatch")
        return min(epochs)
