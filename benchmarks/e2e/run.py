#!/usr/bin/env python3
"""The end-to-end benchmark: five workloads, end-to-end and per-layer.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--seed S] [--repetitions R] [--trace]
                                  [--out FILE]
    python3 benchmarks/e2e/run.py --workload W --seed S --seconds T \\
                                  --trace 0|1
    python3 benchmarks/e2e/run.py compare PARENT.json CHANGE.json
    python3 benchmarks/e2e/run.py pin

The first form runs every workload R times, round-robin, so an episode of
machine noise is spread over all workloads, prints every metric with its
unit, and appends the runs to FILE for ``compare``. The second form
measures one workload for T seconds and prints one JSON result line.
``pin`` recomputes the fidelity digests in ``digests.json``.

Every repetition runs in a fresh child process. End-to-end metrics come
from untraced repetitions; ``--trace`` adds traced repetitions, whose
wrappers (``e2e_clock.py``) give the per-layer metrics. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
for _path in (HERE, SRC):
    if _path not in sys.path:
        sys.path.insert(0, _path)

BENCHMARK_FILE = os.path.join(ROOT, "BENCHMARK.json")
DIGESTS_FILE = os.path.join(HERE, "digests.json")
RESULTS_DIR = os.path.join(HERE, "results")
PIN_SEEDS = (0, 1)

#: Rounds a timed run makes even when they overrun ``--seconds``: three
#: repetitions to fold, or two traced ones so the per-layer counts can be
#: checked to repeat.
MIN_ROUNDS = {False: 3, True: 2}
CHILD_TIMEOUT_S = 150.0
MIN_PAIRS = 10

#: Per-layer metrics that count work or bytes: they must repeat exactly.
EXACT_UNITS = ("count", "bytes")

#: How a timed run folds its repetitions into each end-to-end value.
#: Interference from other tenants of a shared machine only ever slows a
#: repetition (identical repetitions of one process ranged 300-565 ms), so
#: throughput and memory take the best repetition; set-up time takes the
#: median of the run's set-ups.
RUN_FOLD = {"queries_per_s": max, "setup_s": statistics.median,
            "peak_rss_mib": min}


# -- one repetition (child process) --------------------------------------------


def measure(name: str, seed: int, queries: int, mode: str,
            spans_dir: str = RESULTS_DIR) -> dict:
    """Run one repetition of workload ``name`` in this process.

    Modes: ``plain`` is the untraced run the end-to-end metrics come from;
    ``traced`` runs under the layer clock, with pool tasks inline for the
    parallel workloads, and writes its spans to
    ``spans_dir/trace-<name>.jsonl``; ``pooled`` runs a parallel
    workload's pool under the clock for its wall time alone.
    """
    import resource

    from e2e_clock import (LayerClock, SetupMarks, critical_path_s,
                           install_layers, layer_values)
    from e2e_workloads import POOL_WORKERS, WORKLOADS

    workload = WORKLOADS[name]
    workers = (POOL_WORKERS if workload.parallel and mode != "traced"
               else 1)

    def call() -> str:
        return workload.run(seed, queries, workload.planning, workers)

    record: dict = {"mode": mode, "queries": queries}
    if mode == "plain":
        marks = SetupMarks()
        marks.install()
        try:
            start = time.perf_counter()
            output = call()
            record["wall_s"] = time.perf_counter() - start
        finally:
            marks.close()
        record["setup_s"] = marks.first_dispatch() - start
        usage = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        record["peak_rss_mib"] = usage / 1024.0
    else:
        clock = LayerClock()
        patches = install_layers(clock, inline_tasks=mode == "traced")
        try:
            output, record["wall_s"] = clock.measure(call)
        finally:
            patches.restore()
        if mode == "traced":
            record["layers"] = layer_values(clock)
            record["critical_path_s"] = {
                layer: critical_path_s(clock, record["wall_s"], layer)
                for layer in ("sharding", "distcache")}
            clock.write_spans(os.path.join(spans_dir, f"trace-{name}.jsonl"))
    record["digest"] = hashlib.sha256(output.encode()).hexdigest()
    return record


def run_child(name: str, seed: int, queries: int, mode: str) -> dict:
    """One repetition in a fresh process; failures come back as records."""
    command = [sys.executable, os.path.abspath(__file__), "child", name,
               str(seed), str(queries), mode]
    process = subprocess.Popen(command, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The session holds the child's pool workers too.
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return {"mode": mode, "error": f"timed out after {CHILD_TIMEOUT_S} s"}
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        return {"mode": mode, "error": f"exit {process.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def child_main(argv: Sequence[str]) -> int:
    name, seed, queries, mode = argv
    try:
        record = measure(name, int(seed), int(queries), mode)
    except Exception as error:  # reported as a failed repetition
        import traceback

        traceback.print_exc()
        record = {"mode": mode, "error": f"{type(error).__name__}: {error}"}
    print(json.dumps(record))
    return 0


# -- summaries -----------------------------------------------------------------


def load_benchmark() -> dict:
    with open(BENCHMARK_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def load_pins() -> dict:
    with open(DIGESTS_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)`` within the range of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def end_to_end_values(record: dict) -> Dict[str, float]:
    compute_s = record["wall_s"] - record["setup_s"]
    return {
        "queries_per_s": record["queries"] / compute_s,
        "setup_s": record["setup_s"],
        "peak_rss_mib": record["peak_rss_mib"],
    }


def check_fidelity(name: str, seed: int, records: List[dict],
                   problems: List[str]) -> None:
    """All digests of one seed agree, and with the pin when one exists."""
    digests = {record["digest"] for record in records}
    if len(digests) > 1:
        problems.append(f"{name}: repetitions disagree ({len(digests)} "
                        f"distinct digests)")
    pins = load_pins()
    pinned = pins["digests"].get(name, {}).get(str(seed))
    queries = {record["queries"] for record in records}
    if (pinned is not None and queries == {pins["queries"].get(name)}
            and digests != {pinned}):
        problems.append(f"{name}: digest differs from the pin for seed {seed}")


def layer_summary(name: str, records: List[dict], benchmark: dict,
                  problems: List[str]) -> Dict[str, float]:
    """Per-layer metrics from traced, pooled and plain repetitions."""
    traced = [r for r in records if r["mode"] == "traced"]
    pooled = [r for r in records if r["mode"] == "pooled"]
    plain = [r for r in records if r["mode"] == "plain"]
    values: Dict[str, float] = {}
    for metric in benchmark["per_layer"]:
        key = metric["name"]
        if key not in traced[0]["layers"]:
            continue
        samples = [r["layers"][key] for r in traced]
        if metric["unit"] in EXACT_UNITS:
            if len(set(samples)) > 1:
                problems.append(f"{name}: {key} did not repeat: {samples}")
            values[key] = samples[0]
        else:
            values[key] = statistics.median(samples)
    timed_wall = statistics.median([r["wall_s"] for r in (pooled or traced)])
    values["trace.overhead_ratio"] = timed_wall / statistics.median(
        [r["wall_s"] for r in plain])
    for layer in ("sharding", "distcache"):
        key = f"{layer}.parallel_overhead_s"
        critical = [r["critical_path_s"][layer] for r in traced]
        values[key] = 0.0
        if pooled and values[f"{layer}.result_bytes"]:
            values[key] = (statistics.median([r["wall_s"] for r in pooled])
                           - statistics.median(critical))
    return values


def summarize(name: str, seed: int, records: List[dict], trace: bool,
              benchmark: dict) -> dict:
    """The one-line result of one workload's repetitions."""
    ok = [record for record in records if "error" not in record]
    problems: List[str] = [f"{name}: {record['mode']} failed: "
                           f"{record['error']}" for record in records
                           if "error" in record]
    check_fidelity(name, seed, ok, problems)
    plain = [record for record in ok if record["mode"] == "plain"]
    metrics: Dict[str, dict] = {}
    if trace:
        if not any(record["mode"] == "traced" for record in ok) or not plain:
            raise RuntimeError("; ".join(problems) or "no traced run")
        values = layer_summary(name, ok, benchmark, problems)
        for metric in benchmark["per_layer"]:
            metrics[metric["name"]] = {"value": values[metric["name"]],
                                       "unit": metric["unit"]}
    else:
        if not plain:
            raise RuntimeError("; ".join(problems))
        rows = [end_to_end_values(record) for record in plain]
        for metric in benchmark["end_to_end"]:
            fold = RUN_FOLD[metric["name"]]
            metrics[metric["name"]] = {
                "value": fold([row[metric["name"]] for row in rows]),
                "unit": metric["unit"]}
    for problem in problems:
        print(problem, file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "metrics": metrics,
    }


# -- one workload for a fixed time --------------------------------------------


def round_modes(parallel: bool, trace: bool) -> List[str]:
    if not trace:
        return ["plain"]
    return ["plain", "traced"] + (["pooled"] if parallel else [])


def timed_main(args: argparse.Namespace) -> int:
    from e2e_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    modes = round_modes(workload.parallel, trace)
    records: List[dict] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        for mode in modes:
            records.append(run_child(args.workload, args.seed,
                                     workload.queries, mode))
        rounds += 1
        elapsed = time.perf_counter() - start
        if (rounds >= MIN_ROUNDS[trace]
                and elapsed + elapsed / rounds > args.seconds):
            break
    try:
        result = summarize(args.workload, args.seed, records, trace,
                           load_benchmark())
    except RuntimeError as error:
        print(f"run.py: {args.workload}: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


# -- full mode -----------------------------------------------------------------


def full_main(args: argparse.Namespace) -> int:
    from e2e_workloads import WORKLOADS

    benchmark = load_benchmark()
    names = [entry["name"] for entry in benchmark["workloads"]]
    records: Dict[str, List[dict]] = {name: [] for name in names}
    for repetition in range(args.repetitions):
        for name in names:
            record = run_child(name, args.seed, WORKLOADS[name].queries,
                               "plain")
            records[name].append(record)
            print(f"[{repetition + 1}/{args.repetitions}] {name}: "
                  f"{record.get('error') or 'ok'}", file=sys.stderr)
    if args.trace:
        for name in names:
            for mode in round_modes(WORKLOADS[name].parallel, True)[1:]:
                records[name].append(run_child(
                    name, args.seed, WORKLOADS[name].queries, mode))
    store_results(args.out, records)
    failed = False
    for name in names:
        try:
            result = summarize(name, args.seed, records[name], args.trace,
                               benchmark)
        except RuntimeError as error:
            print(f"\n{name}: no result: {error}")
            failed = True
            continue
        failed = failed or not result["correct"]
        print(f"\n{name}  (seed {args.seed}, "
              f"{WORKLOADS[name].queries} queries/run, "
              f"error_rate {result['failed']}/{result['attempted']})")
        rows = [end_to_end_values(record) for record in records[name]
                if record["mode"] == "plain" and "error" not in record]
        for metric in benchmark["end_to_end"]:
            samples = [row[metric["name"]] for row in rows]
            q1, mid, q3 = quartiles(samples)
            print(f"  {metric['name']:<16} {mid:12.4f} {metric['unit']:<9}"
                  f" min {min(samples):.4f}  q1 {q1:.4f}  q3 {q3:.4f}"
                  f"  n={len(samples)}")
        if args.trace:
            for key, metric in result["metrics"].items():
                if metric["value"]:  # zero: the layer is idle here
                    print(f"  {key:<30} {metric['value']:14.6g} "
                          f"{metric['unit']}")
    print(f"\nrepetitions appended to {os.path.relpath(args.out)}")
    return 1 if failed else 0


def store_results(path: str, records: Dict[str, List[dict]]) -> None:
    """Append this invocation's end-to-end samples to ``path``."""
    try:
        with open(path, encoding="utf-8") as handle:
            stored = json.load(handle)
    except FileNotFoundError:
        stored = {}
    for name, items in records.items():
        entry = stored.setdefault(name, {})
        for record in items:
            if record["mode"] != "plain" or "error" in record:
                continue
            for key, value in end_to_end_values(record).items():
                entry.setdefault(key, []).append(value)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(stored, handle, indent=1)


# -- compare -------------------------------------------------------------------


def compare_metric(parent: List[float], change: List[float], bound: float,
                   higher_better: bool) -> str:
    """One cell of the comparison table.

    Worse by more than ``bound`` (a share of the parent's median) is a
    regression. When the parent's own interquartile spread is wider than
    the bound the pair is ``unresolved``, unless every change run beats
    every parent run. Given paired runs, a gain needs a win fraction of
    at least 0.9 and a median difference wider than the parent's
    interquartile range, over at least :data:`MIN_PAIRS` pairs.
    """
    sign = 1.0 if higher_better else -1.0
    q1, parent_mid, q3 = quartiles(parent)
    change_mid = statistics.median(change)
    relative = (change_mid - parent_mid) / parent_mid
    improvement = sign * relative
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if all_better and improvement > 0:
        verdict = "better"
    elif (q3 - q1) / parent_mid > bound:
        verdict = "unresolved"
    elif improvement < -bound:
        verdict = "REGRESSION"
    else:
        verdict = "ok"
    cell = f"{relative:+.1%}"
    if len(parent) == len(change) and len(parent) > 1:
        wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
        fraction = wins / len(parent)
        difference = abs(change_mid - parent_mid)
        if (len(parent) >= MIN_PAIRS and fraction >= 0.9 and improvement > 0
                and difference > q3 - q1):
            verdict = "gain"
        cell += f" win {fraction:.2f} d/IQR " + (
            f"{difference / (q3 - q1):.1f}" if q3 > q1 else "inf")
    return f"{cell} {verdict}"


def compare_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(args.parent, encoding="utf-8") as handle:
        parent = json.load(handle)
    with open(args.change, encoding="utf-8") as handle:
        change = json.load(handle)
    metrics = load_benchmark()["end_to_end"]
    print("workload".ljust(22) + "".join(
        f"{metric['name']} (bound {metric['bound']:.0%})".ljust(40)
        for metric in metrics))
    regressed = False
    for name in parent:
        if name not in change:
            continue
        cells = []
        for metric in metrics:
            cell = compare_metric(parent[name][metric["name"]],
                                  change[name][metric["name"]],
                                  metric["bound"],
                                  metric["better"] == "higher")
            regressed = regressed or cell.endswith("REGRESSION")
            cells.append(cell.ljust(40))
        print(name.ljust(22) + "".join(cells))
    return 1 if regressed else 0


# -- pins ----------------------------------------------------------------------


def pin_main() -> int:
    """Digest each workload's scalar twin for the pinned seeds."""
    from e2e_workloads import WORKLOADS

    pins = {"queries": {}, "digests": {}}
    for name, workload in WORKLOADS.items():
        pins["queries"][name] = workload.queries
        pins["digests"][name] = {}
        for seed in PIN_SEEDS:
            output = workload.run(seed, workload.queries, "scalar", 1)
            digest = hashlib.sha256(output.encode()).hexdigest()
            pins["digests"][name][str(seed)] = digest
            print(f"{name} seed {seed}: {digest}", file=sys.stderr)
    with open(DIGESTS_FILE, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


# -- entry point ---------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: the program's sources are missing: {SRC}",
              file=sys.stderr)
        return 2
    if argv[:1] == ["child"]:
        return child_main(argv[1:])
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    if argv[:1] == ["pin"]:
        return pin_main()
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", help="measure one workload for "
                        "--seconds and print one JSON result line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="per-layer metrics")
    parser.add_argument("--repetitions", type=int, default=5)
    parser.add_argument("--out", default=os.path.join(RESULTS_DIR,
                                                      "e2e.json"))
    args = parser.parse_args(argv)
    if args.workload is not None:
        return timed_main(args)
    return full_main(args)


if __name__ == "__main__":
    sys.exit(main())
