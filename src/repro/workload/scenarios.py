"""Scenario-diverse workloads on top of the arrival processes.

The paper's sweep keeps the arrival rate fixed within a run; real clouds
see anything but. This module adds arrival regimes whose rate changes
over simulated time — and announces every regime change as a
:class:`~repro.workload.arrival.PhaseChange` marker the simulation
kernel understands:

* :class:`BurstyArrival` — on/off traffic: dense bursts separated by
  idle gaps (think batched report generation).
* :class:`DiurnalArrival` — sinusoidally modulated rate (a day/night
  usage cycle compressed to simulation scale).
* :class:`PhaseShiftArrival` — piecewise-fixed inter-arrival times that
  shift at phase boundaries (abrupt regime changes).

On the template side, :func:`drifting_mix_workload` generates a
multi-template mix whose hot template set drifts on an explicit
schedule, rather than by the generator's internal RNG.

:func:`build_scenario` packages all of this behind a name registry the
CLI's ``scenario`` subcommand exposes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.workload.arrival import (
    ArrivalProcess,
    FixedInterarrival,
    PhaseChange,
    PoissonArrival,
    TraceArrival,
)
from repro.workload.generator import WorkloadGenerator, WorkloadSpec
from repro.workload.query import Query
from repro.workload.templates import paper_templates, template_by_name


class BurstyArrival(ArrivalProcess):
    """On/off arrivals: bursts of closely spaced queries, then silence.

    Each burst holds ``burst_size`` queries spaced ``burst_interval_s``
    apart; consecutive bursts are separated by ``idle_gap_s`` of silence.
    A phase change is announced at the start of every burst after the
    first.
    """

    def __init__(self, burst_size: int, burst_interval_s: float,
                 idle_gap_s: float) -> None:
        if burst_size <= 0:
            raise WorkloadError(f"burst_size must be positive, got {burst_size}")
        if burst_interval_s <= 0:
            raise WorkloadError(
                f"burst_interval_s must be positive, got {burst_interval_s}"
            )
        if idle_gap_s <= 0:
            raise WorkloadError(f"idle_gap_s must be positive, got {idle_gap_s}")
        self._burst_size = burst_size
        self._burst_interval_s = float(burst_interval_s)
        self._idle_gap_s = float(idle_gap_s)

    @property
    def mean_interarrival(self) -> float:
        cycle = (self._burst_size - 1) * self._burst_interval_s + self._idle_gap_s
        return cycle / self._burst_size

    def arrival_times(self, count: int) -> List[float]:
        times: List[float] = []
        now = 0.0
        for index in range(count):
            if index:
                in_burst = index % self._burst_size != 0
                now += self._burst_interval_s if in_burst else self._idle_gap_s
            times.append(now)
        return times

    def phase_changes(self, count: int) -> List[PhaseChange]:
        # Re-derives the arrival instants so boundary times match the
        # generated arrivals bit-for-bit (a closed form could drift by an
        # ulp and flip the kernel's same-instant dispatch order); the O(n)
        # arithmetic is negligible next to the simulation itself.
        times = self.arrival_times(count)
        changes: List[PhaseChange] = []
        for burst, start in enumerate(range(self._burst_size, count,
                                            self._burst_size), start=1):
            changes.append(PhaseChange(
                time_s=times[start], phase_index=burst, label="burst-start",
            ))
        return changes

    def __repr__(self) -> str:
        return (f"BurstyArrival(burst_size={self._burst_size}, "
                f"burst_interval_s={self._burst_interval_s}, "
                f"idle_gap_s={self._idle_gap_s})")


class DiurnalArrival(ArrivalProcess):
    """Sinusoidally rate-modulated arrivals (a compressed day/night cycle).

    The instantaneous rate is ``(1/mean) * (1 + amplitude*sin(2*pi*t/period))``;
    each next gap is the reciprocal of the current rate (deterministic), or
    exponentially distributed around it when ``seed`` is given. Phase
    changes are announced at every half-period (the rising/falling swing).
    """

    def __init__(self, mean_interval: float, period_s: float,
                 amplitude: float = 0.8, seed: Optional[int] = None) -> None:
        if mean_interval <= 0:
            raise WorkloadError(
                f"mean_interval must be positive, got {mean_interval}"
            )
        if period_s <= 0:
            raise WorkloadError(f"period_s must be positive, got {period_s}")
        if not 0.0 <= amplitude < 1.0:
            raise WorkloadError(f"amplitude must be in [0, 1), got {amplitude}")
        self._mean_interval = float(mean_interval)
        self._period_s = float(period_s)
        self._amplitude = float(amplitude)
        self._seed = seed

    @property
    def mean_interarrival(self) -> float:
        return self._mean_interval

    def _rate(self, time_s: float) -> float:
        phase = 2.0 * math.pi * time_s / self._period_s
        return (1.0 + self._amplitude * math.sin(phase)) / self._mean_interval

    def arrival_times(self, count: int) -> List[float]:
        rng = np.random.default_rng(self._seed) if self._seed is not None else None
        times: List[float] = []
        now = 0.0
        for index in range(count):
            if index:
                mean_gap = 1.0 / self._rate(now)
                gap = float(rng.exponential(mean_gap)) if rng is not None else mean_gap
                now += gap
            times.append(now)
        return times

    def phase_changes(self, count: int) -> List[PhaseChange]:
        times = self.arrival_times(count)
        if not times:
            return []
        horizon = times[-1]
        half = self._period_s / 2.0
        changes: List[PhaseChange] = []
        boundary = half
        index = 1
        while boundary < horizon:
            label = "falling" if index % 2 else "rising"
            changes.append(PhaseChange(
                time_s=boundary, phase_index=index, label=label,
            ))
            boundary += half
            index += 1
        return changes

    def __repr__(self) -> str:
        return (f"DiurnalArrival(mean_interval={self._mean_interval}, "
                f"period_s={self._period_s}, amplitude={self._amplitude}, "
                f"seed={self._seed})")


class PhaseShiftArrival(ArrivalProcess):
    """Piecewise-fixed inter-arrival times, shifting every N queries.

    ``intervals_s`` lists the fixed gap of each phase; arrivals cycle
    through the phases, spending ``queries_per_phase`` arrivals in each.
    A phase change is announced at every shift.
    """

    def __init__(self, intervals_s: Sequence[float],
                 queries_per_phase: int) -> None:
        intervals = [float(value) for value in intervals_s]
        if not intervals:
            raise WorkloadError("at least one phase interval is required")
        if any(value <= 0 for value in intervals):
            raise WorkloadError("phase intervals must be positive")
        if queries_per_phase <= 0:
            raise WorkloadError(
                f"queries_per_phase must be positive, got {queries_per_phase}"
            )
        self._intervals = intervals
        self._queries_per_phase = queries_per_phase

    @property
    def mean_interarrival(self) -> float:
        return sum(self._intervals) / len(self._intervals)

    def _interval_at(self, index: int) -> float:
        phase = (index // self._queries_per_phase) % len(self._intervals)
        return self._intervals[phase]

    def arrival_times(self, count: int) -> List[float]:
        times: List[float] = []
        now = 0.0
        for index in range(count):
            if index:
                # The gap belongs to the phase of the arriving query.
                now += self._interval_at(index)
            times.append(now)
        return times

    def phase_changes(self, count: int) -> List[PhaseChange]:
        times = self.arrival_times(count)
        changes: List[PhaseChange] = []
        for shift, start in enumerate(range(self._queries_per_phase, count,
                                            self._queries_per_phase), start=1):
            phase = shift % len(self._intervals)
            changes.append(PhaseChange(
                time_s=times[start],
                phase_index=shift,
                label=f"interval={self._intervals[phase]:g}s",
            ))
        return changes

    def __repr__(self) -> str:
        return (f"PhaseShiftArrival(intervals_s={tuple(self._intervals)}, "
                f"queries_per_phase={self._queries_per_phase})")


# -- template mixes with drift -------------------------------------------------


def drifting_mix_workload(spec: WorkloadSpec,
                          phase_template_names: Sequence[Sequence[str]],
                          arrival_process: Optional[ArrivalProcess] = None,
                          ) -> Tuple[List[Query], List[PhaseChange]]:
    """A workload whose template mix drifts on an explicit schedule.

    The query stream is split into ``len(phase_template_names)`` contiguous
    phases; phase ``k`` draws only from the named templates (the generator's
    own hot-set machinery still runs *within* the restricted pool). Returns
    the queries plus the phase-change markers at each drift boundary.
    """
    if not phase_template_names:
        raise WorkloadError("at least one phase template set is required")
    phase_sets = [
        tuple(template_by_name(name) for name in names)
        for names in phase_template_names
    ]
    if any(not templates for templates in phase_sets):
        raise WorkloadError("every phase must name at least one template")

    process = arrival_process or FixedInterarrival(spec.interarrival_s)
    total = spec.query_count
    arrivals = process.arrival_times(total)
    phase_count = len(phase_sets)
    per_phase = [total // phase_count] * phase_count
    for index in range(total % phase_count):
        per_phase[index] += 1

    queries: List[Query] = []
    changes: List[PhaseChange] = []
    cursor = 0
    for phase_index, (templates, size) in enumerate(zip(phase_sets, per_phase)):
        if size == 0:
            continue
        phase_arrivals = arrivals[cursor:cursor + size]
        if phase_index and cursor < total:
            changes.append(PhaseChange(
                time_s=phase_arrivals[0],
                phase_index=phase_index,
                label="mix-drift",
            ))
        phase_spec = replace(
            spec,
            query_count=size,
            seed=spec.seed + phase_index,
            hot_template_count=min(spec.hot_template_count, len(templates)),
        )
        generator = WorkloadGenerator(
            phase_spec,
            templates=templates,
            arrival_process=TraceArrival(phase_arrivals),
        )
        queries.extend(generator.iter_queries(
            query_ids=range(cursor, cursor + size)))
        cursor += size
    return queries, changes


# -- scenario registry ---------------------------------------------------------


@dataclass(frozen=True)
class ScenarioWorkload:
    """A named, fully generated scenario: queries plus phase boundaries.

    ``shocks`` carries the scenario's market-shock specs (see
    :mod:`repro.workload.grammar`) — empty for the arrival-shape
    families, populated by the adversarial ``shocks`` family. Callers
    compile them against the generated queries with
    :func:`~repro.workload.grammar.compile_shock_events`.
    """

    name: str
    queries: Tuple[Query, ...]
    phase_changes: Tuple[PhaseChange, ...]
    description: str = ""
    shocks: Tuple[object, ...] = ()

    @property
    def query_count(self) -> int:
        """Number of queries in the scenario."""
        return len(self.queries)


#: Names accepted by :func:`build_scenario` (and the CLI ``scenario`` command).
SCENARIO_NAMES = ("fixed", "poisson", "bursty", "diurnal", "phase-shift",
                  "mix-drift", "shocks")


def _scenario_process(name: str, interarrival_s: float, seed: int,
                      query_count: int) -> Tuple[ArrivalProcess, str]:
    """The arrival process (and a description) backing a scenario name."""
    if name == "fixed":
        return (FixedInterarrival(interarrival_s),
                f"fixed arrivals every {interarrival_s:g}s (the paper's setting)")
    if name == "poisson":
        return (PoissonArrival(interarrival_s, seed=seed),
                f"Poisson arrivals, mean gap {interarrival_s:g}s")
    if name == "bursty":
        burst_size = max(2, min(25, query_count // 8))
        burst_interval = interarrival_s / 4.0
        idle_gap = (burst_size * interarrival_s
                    - (burst_size - 1) * burst_interval)
        return (BurstyArrival(burst_size, burst_interval, idle_gap),
                f"bursts of {burst_size} queries {burst_interval:g}s apart, "
                f"idle {idle_gap:g}s between bursts")
    if name == "diurnal":
        period = max(4.0, interarrival_s * query_count / 4.0)
        return (DiurnalArrival(interarrival_s, period_s=period, amplitude=0.8,
                               seed=seed),
                f"sinusoidal rate, period {period:g}s, amplitude 0.8")
    if name == "phase-shift":
        intervals = (interarrival_s / 2.0, interarrival_s * 2.0, interarrival_s)
        per_phase = max(1, query_count // 6)
        return (PhaseShiftArrival(intervals, queries_per_phase=per_phase),
                f"inter-arrival shifts through {intervals} every "
                f"{per_phase} queries")
    raise WorkloadError(
        f"unknown scenario {name!r}; expected one of {', '.join(SCENARIO_NAMES)}"
    )


def build_scenario(name: str, query_count: int = 400,
                   interarrival_s: float = 10.0,
                   seed: int = 0) -> ScenarioWorkload:
    """Generate a named scenario workload ready for the simulation kernel.

    Args:
        name: one of :data:`SCENARIO_NAMES`.
        query_count: number of queries to generate.
        interarrival_s: mean inter-arrival time the scenario is built
            around (regime-specific shapes keep roughly this mean).
        seed: workload / arrival RNG seed.
    """
    if query_count <= 0:
        raise WorkloadError(f"query_count must be positive, got {query_count}")
    if interarrival_s <= 0:
        raise WorkloadError(
            f"interarrival_s must be positive, got {interarrival_s}"
        )
    spec = WorkloadSpec(query_count=query_count, interarrival_s=interarrival_s,
                        seed=seed)
    if name == "shocks":
        # Imported lazily: the grammar builds on this module's siblings
        # and keeping the registry import-light avoids a startup cycle.
        from repro.workload.grammar import build_shock_scenario

        compiled = build_shock_scenario(
            query_count=query_count, interarrival_s=interarrival_s, seed=seed)
        return ScenarioWorkload(
            name=name,
            queries=compiled.queries,
            phase_changes=compiled.phase_changes,
            description=compiled.description,
            shocks=compiled.shocks,
        )
    if name == "mix-drift":
        names = [template.name for template in paper_templates()]
        # Three overlapping template pools: the mix drifts but never jumps
        # to an entirely disjoint workload.
        third = max(1, len(names) // 3)
        pools = [names[:third * 2], names[third:], names[third * 2:] + names[:third]]
        queries, changes = drifting_mix_workload(spec, pools)
        return ScenarioWorkload(
            name=name,
            queries=tuple(queries),
            phase_changes=tuple(changes),
            description=f"template mix drifting across {len(pools)} pools",
        )
    process, description = _scenario_process(name, interarrival_s, seed,
                                             query_count)
    generator = WorkloadGenerator(spec, arrival_process=process)
    return ScenarioWorkload(
        name=name,
        queries=tuple(generator.generate()),
        phase_changes=tuple(process.phase_changes(query_count)),
        description=description,
    )
