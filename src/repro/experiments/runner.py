"""The (scheme x inter-arrival time) grid runner shared by Figures 4 and 5.

Cells are independent — every cell builds its scheme fresh and replays a
deterministic workload — so the grid is embarrassingly parallel:
:func:`run_grid` fans cells out over a ``ProcessPoolExecutor`` when asked
for more than one job, and the parallel path returns cell-for-cell
identical results to the sequential one (same profile, same seeds, same
insertion order).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field as dataclasses_field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.costmodel.config import CostModelConfig
from repro.economy.engine import EconomyConfig
from repro.errors import ExperimentError, map_naming_failures
from repro.experiments.config import ExperimentProfile
from repro.obs.trace import TraceRecorder
from repro.policies.economic import EconomicSchemeConfig
from repro.simulator.metrics import MetricsSummary
from repro.simulator.simulation import CloudSimulation, SimulationConfig
from repro.system import CloudSystem, CloudSystemConfig
from repro.workload.generator import WorkloadGenerator, WorkloadSpec


@dataclass(frozen=True)
class CellResult:
    """Result of one (scheme, inter-arrival time) cell.

    ``recorder`` carries the cell's recorder when the grid ran observed
    (source-tagged ``scheme@interval``; absorbed by :func:`run_grid`
    into the caller's recorder) and is excluded from equality so observed
    grids compare cell-for-cell identical to unobserved ones.
    """

    scheme: str
    interarrival_s: float
    summary: MetricsSummary
    recorder: Optional[TraceRecorder] = dataclasses_field(default=None,
                                                          compare=False)


class ExperimentGrid:
    """All cell results of one profile, addressable by scheme and interval."""

    def __init__(self, profile: ExperimentProfile,
                 cells: Iterable[CellResult]) -> None:
        self._profile = profile
        self._cells: Dict[Tuple[str, float], CellResult] = {}
        for cell in cells:
            self._cells[(cell.scheme, cell.interarrival_s)] = cell

    @property
    def profile(self) -> ExperimentProfile:
        """The profile the grid was produced with."""
        return self._profile

    @property
    def cells(self) -> Tuple[CellResult, ...]:
        """All cells, in insertion order."""
        return tuple(self._cells.values())

    def cell(self, scheme: str, interarrival_s: float) -> CellResult:
        """One cell, or raise :class:`ExperimentError` if it was not run."""
        try:
            return self._cells[(scheme, interarrival_s)]
        except KeyError:
            raise ExperimentError(
                f"no cell for scheme={scheme!r}, interarrival={interarrival_s}"
            ) from None

    def metric(self, scheme: str, interarrival_s: float,
               accessor: Callable[[MetricsSummary], float]) -> float:
        """Extract one metric from one cell."""
        return accessor(self.cell(scheme, interarrival_s).summary)

    def series(self, scheme: str,
               accessor: Callable[[MetricsSummary], float]) -> List[float]:
        """One metric across the interval sweep, in profile order."""
        return [
            self.metric(scheme, interval, accessor)
            for interval in self._profile.interarrival_times_s
        ]


def build_system(profile: ExperimentProfile) -> CloudSystem:
    """Assemble the cloud system an experiment profile calls for."""
    cost_model = CostModelConfig(disk_duration_scale=profile.disk_duration_scale)
    return CloudSystem(CloudSystemConfig(
        database_bytes=profile.database_bytes,
        cost_model=cost_model,
    ))


def run_cell(system: CloudSystem, profile: ExperimentProfile, scheme_name: str,
             interarrival_s: float,
             workload_spec: Optional[WorkloadSpec] = None,
             recorder: Optional[TraceRecorder] = None) -> CellResult:
    """Run one (scheme, interval) cell against a prepared system.

    A ``recorder`` is attached under the zero-perturbation contract and
    rides the returned :class:`CellResult` (:func:`run_grid` hands each
    cell its own, source ``scheme@interval``, and absorbs it).
    """
    spec = workload_spec or WorkloadSpec(
        query_count=profile.query_count,
        interarrival_s=interarrival_s,
        seed=profile.seed,
    )
    workload = WorkloadGenerator(spec.with_interarrival(interarrival_s)).generate()
    scheme = system.scheme(scheme_name, economic_config=EconomicSchemeConfig(
        economy=EconomyConfig(planning=profile.planning),
    ))
    observers = []
    if recorder is not None:
        from repro.obs.metrics import attach_observability

        observers = attach_observability(scheme, recorder)
    simulation = CloudSimulation(
        scheme, SimulationConfig(warmup_queries=profile.warmup_queries)
    )
    result = simulation.run(workload, observers=observers)
    return CellResult(
        scheme=scheme_name,
        interarrival_s=interarrival_s,
        summary=result.summary,
        recorder=recorder,
    )


#: Keyed, bounded grid cache: profiles are frozen (hashable) dataclasses, so
#: Figure 4, Figure 5 and the headline ratios — which all read the same grid —
#: only pay for the simulations once. The bound keeps long-lived sessions
#: (sweeping many profiles) from holding every grid ever computed.
_GRID_CACHE: "OrderedDict[ExperimentProfile, ExperimentGrid]" = OrderedDict()
_GRID_CACHE_MAX_ENTRIES = 8


def _cache_grid(profile: ExperimentProfile, grid: ExperimentGrid) -> None:
    """Insert a grid, evicting the least recently used entry past the bound."""
    _GRID_CACHE[profile] = grid
    _GRID_CACHE.move_to_end(profile)
    while len(_GRID_CACHE) > _GRID_CACHE_MAX_ENTRIES:
        _GRID_CACHE.popitem(last=False)


#: One grid cell to run: profile, scheme, interval and the cell's recorder.
GridTask = Tuple[ExperimentProfile, str, float, Optional[TraceRecorder]]


def _run_cell_task(task: GridTask) -> CellResult:
    """Worker entry point: run one cell in a fresh process.

    Each worker assembles its own :class:`CloudSystem`; the system is a
    deterministic function of the profile, so per-worker assembly cannot
    change any result. Observed cells carry their recorder back through
    the result pickle (recorders are plain picklable data).
    """
    profile, scheme_name, interarrival_s, recorder = task
    return run_cell(build_system(profile), profile, scheme_name,
                    interarrival_s, recorder=recorder)


def _grid_cell_label(task: GridTask) -> str:
    """How a failure names a grid cell: scheme, interval, config hash."""
    from repro.obs.manifest import config_hash

    profile, scheme_name, interarrival_s, _ = task
    return (f"grid cell {scheme_name} @ {interarrival_s:g}s, cell config "
            f"{config_hash((profile, scheme_name, interarrival_s))}")


def run_grid(profile: ExperimentProfile, use_cache: bool = True,
             jobs: Optional[int] = None,
             recorder: Optional[TraceRecorder] = None) -> ExperimentGrid:
    """Run the full (scheme x interval) grid for a profile.

    Args:
        profile: what to run.
        use_cache: reuse (and populate) the per-process grid cache.
        jobs: worker processes to fan the cells out over; ``None`` or 1
            runs sequentially in-process. The parallel path produces
            cell-for-cell identical results (the cells are independent
            and individually deterministic).
        recorder: optional :class:`~repro.obs.trace.TraceRecorder` the
            grid records into — every cell runs its own source-tagged
            recorder (``scheme@interval``), absorbed here in cell order,
            so the sequential and parallel observed grids emit the same
            lines. Observed grids bypass the cache (cached grids carry no
            recorders) and are not cached; the tables stay
            byte-identical either way.
    """
    worker_count = 1 if jobs is None else int(jobs)
    if worker_count < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    observed = recorder is not None
    if use_cache and not observed and profile in _GRID_CACHE:
        _GRID_CACHE.move_to_end(profile)
        return _GRID_CACHE[profile]
    tasks: List[GridTask] = [
        (profile, scheme_name, interarrival,
         recorder.fresh(f"{scheme_name}@{interarrival:g}")
         if observed else None)
        for interarrival in profile.interarrival_times_s
        for scheme_name in profile.schemes
    ]
    if worker_count == 1:
        system = build_system(profile)
        cells = [
            run_cell(system, profile, scheme_name, interarrival,
                     recorder=cell_recorder)
            for _, scheme_name, interarrival, cell_recorder in tasks
        ]
    else:
        # Results come back in task order, so the grid's insertion order —
        # and therefore every table — matches the sequential run.
        cells = map_naming_failures(_run_cell_task, tasks, worker_count,
                                    _grid_cell_label, ExperimentError)
    if observed:
        for cell in cells:
            recorder.absorb(cell.recorder)
    grid = ExperimentGrid(profile, cells)
    if use_cache and not observed:
        _cache_grid(profile, grid)
    return grid


def clear_grid_cache() -> None:
    """Drop all cached grids (used by tests)."""
    _GRID_CACHE.clear()
