"""SDSS-like evolving workload generator.

Section VI lists the workload properties the economy relies on: data access
locality (queries mostly target a specific part of the data), temporal
locality (similar queries arrive close in time), result-heaviness, and
parallelisability. Section VII-A then simulates "the query evolution of a
million SDSS-like queries" from 7 TPC-H templates.

The generator models this as a *phased* workload: time is divided into
phases, each phase concentrates its queries on a small set of currently-hot
templates (temporal locality) and on a narrow band of each template's
predicate domain (data locality). Phase changes make the hot set drift,
reproducing the "query evolution" that forces the cache to adapt — build new
structures, evict stale ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.workload.arrival import ArrivalProcess, FixedInterarrival
from repro.workload.query import Query, QueryTemplate
from repro.workload.templates import paper_templates


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of the evolving workload.

    Attributes:
        query_count: number of queries to generate.
        interarrival_s: mean query inter-arrival time in seconds (ignored
            when ``arrival_process`` is supplied).
        seed: RNG seed; two generators with equal specs produce equal
            workloads.
        hot_template_count: how many templates are "hot" in each phase
            (temporal locality: most queries come from the hot set).
        hot_template_probability: probability that a query is drawn from the
            hot set rather than uniformly from all templates.
        phase_length: number of queries after which the hot set and the hot
            data region drift (the workload "evolution").
        locality_width: width of the hot band of each range predicate's
            domain, as a fraction (data locality: smaller = more focused).
        selectivity_jitter: multiplicative jitter applied to template
            selectivities within the hot band, so repeated queries are
            similar but not identical.
        budget_scale_mean: mean of the per-query budget multiplier.
        budget_scale_sigma: lognormal sigma of the budget multiplier.
    """

    query_count: int = 2_000
    interarrival_s: float = 10.0
    seed: int = 0
    hot_template_count: int = 3
    hot_template_probability: float = 0.85
    phase_length: int = 400
    locality_width: float = 0.25
    selectivity_jitter: float = 0.2
    budget_scale_mean: float = 1.0
    budget_scale_sigma: float = 0.15

    def __post_init__(self) -> None:
        if self.query_count <= 0:
            raise WorkloadError("query_count must be positive")
        if not self.interarrival_s > 0:
            raise WorkloadError("interarrival_s must be positive")
        if self.seed < 0:
            raise WorkloadError("seed must be non-negative")
        if self.hot_template_count <= 0:
            raise WorkloadError("hot_template_count must be positive")
        if not 0.0 <= self.hot_template_probability <= 1.0:
            raise WorkloadError("hot_template_probability must be in [0, 1]")
        if self.phase_length <= 0:
            raise WorkloadError("phase_length must be positive")
        if not 0.0 < self.locality_width <= 1.0:
            raise WorkloadError("locality_width must be in (0, 1]")
        if not 0.0 <= self.selectivity_jitter < 1.0:
            raise WorkloadError("selectivity_jitter must be in [0, 1)")
        if self.budget_scale_mean <= 0:
            raise WorkloadError("budget_scale_mean must be positive")
        if not self.budget_scale_sigma >= 0:
            raise WorkloadError("budget_scale_sigma must be non-negative")

    def with_interarrival(self, interarrival_s: float) -> "WorkloadSpec":
        """Copy of the spec with a different mean inter-arrival time."""
        return WorkloadSpec(
            query_count=self.query_count,
            interarrival_s=interarrival_s,
            seed=self.seed,
            hot_template_count=self.hot_template_count,
            hot_template_probability=self.hot_template_probability,
            phase_length=self.phase_length,
            locality_width=self.locality_width,
            selectivity_jitter=self.selectivity_jitter,
            budget_scale_mean=self.budget_scale_mean,
            budget_scale_sigma=self.budget_scale_sigma,
        )


@dataclass(frozen=True)
class ArrivalEnvelope:
    """The time extent of a workload, without the workload itself.

    A run reads its arrivals as a stream, but needs to know how many
    queries there are and when the first and last arrive *before* reading
    them, to place settlement horizons, shock onsets, and the trailing
    settlement. The envelope carries exactly those three numbers: taken
    off a materialised list (:meth:`of`) or from the same
    :meth:`ArrivalProcess.arrival_times` floats a generator stamps its
    queries with (:meth:`WorkloadGenerator.arrival_envelope`), so every
    derived instant is bitwise the same either way.
    """

    query_count: int
    start_s: float
    last_s: float

    def __post_init__(self) -> None:
        if self.query_count <= 0:
            raise WorkloadError("query_count must be positive")
        if self.last_s < self.start_s:
            raise WorkloadError("last_s must not precede start_s")

    @classmethod
    def of(cls, queries: Sequence[Query]) -> "ArrivalEnvelope":
        """The envelope of a materialised workload (first and last in order)."""
        if not queries:
            raise WorkloadError("the workload contains no queries")
        return cls(query_count=len(queries),
                   start_s=queries[0].arrival_time,
                   last_s=queries[-1].arrival_time)

    @classmethod
    def of_times(cls, arrivals: Sequence[float]) -> "ArrivalEnvelope":
        """The envelope of an arrival-instant array (non-decreasing)."""
        if not len(arrivals):
            raise WorkloadError("the workload contains no queries")
        return cls(query_count=len(arrivals), start_s=float(arrivals[0]),
                   last_s=float(arrivals[-1]))

    @property
    def span_s(self) -> float:
        """Seconds between the first and last arrival."""
        return self.last_s - self.start_s

    @property
    def trailing_interval_s(self) -> float:
        """The mean inter-arrival time (the trailing-settlement delay).

        A run's measured duration should equal ``count * interarrival``:
        the span covers ``count - 1`` gaps, so the trailing charge is the
        empirical mean gap — exact for fixed arrivals and unbiased for
        irregular ones — and 0 for a single query.
        """
        if self.query_count < 2:
            return 0.0
        return self.span_s / (self.query_count - 1)


class WorkloadGenerator:
    """Generates an evolving stream of :class:`~repro.workload.query.Query`."""

    def __init__(self, spec: WorkloadSpec = WorkloadSpec(),
                 templates: Optional[Sequence[QueryTemplate]] = None,
                 arrival_process: Optional[ArrivalProcess] = None) -> None:
        self._spec = spec
        self._templates: Tuple[QueryTemplate, ...] = tuple(
            templates if templates is not None else paper_templates()
        )
        if not self._templates:
            raise WorkloadError("at least one template is required")
        if spec.hot_template_count > len(self._templates):
            raise WorkloadError(
                f"hot_template_count={spec.hot_template_count} exceeds the "
                f"number of templates ({len(self._templates)})"
            )
        self._arrival_process = arrival_process or FixedInterarrival(
            spec.interarrival_s
        )
        # Per-template constants of the draws: the predicated column of
        # every template predicate, in the order the phase's hot centers
        # are drawn, and each template's jittered predicates as
        # (column, nominal selectivity).
        self._center_columns: Tuple[str, ...] = tuple(
            column for template in self._templates
            for column in template.qualified_predicate_columns
        )
        self._jittered: Tuple[Tuple[Tuple[str, float], ...], ...] = tuple(
            tuple((column, predicate.selectivity) for predicate, column
                  in zip(template.predicates,
                         template.qualified_predicate_columns)
                  if predicate.selectivity is not None)
            for template in self._templates
        )

    @property
    def spec(self) -> WorkloadSpec:
        """The workload specification."""
        return self._spec

    @property
    def templates(self) -> Tuple[QueryTemplate, ...]:
        """The templates queries are drawn from."""
        return self._templates

    @property
    def arrival_process(self) -> ArrivalProcess:
        """The arrival process providing query arrival instants."""
        return self._arrival_process

    # -- generation ------------------------------------------------------------

    def generate(self, count: Optional[int] = None) -> List[Query]:
        """Generate the workload as a list (see :meth:`iter_queries`)."""
        return list(self.iter_queries(count))

    def arrival_envelope(self, count: Optional[int] = None) -> ArrivalEnvelope:
        """The workload's time extent, from the arrival process alone.

        Cheap relative to generation (no template/selectivity draws), and
        bitwise consistent with :meth:`iter_queries`: both read the same
        :meth:`ArrivalProcess.arrival_times` array.
        """
        total = self._spec.query_count if count is None else count
        if total <= 0:
            raise WorkloadError(f"count must be positive, got {total}")
        return ArrivalEnvelope.of_times(
            self._arrival_process.arrival_times(total))

    def iter_queries(self, count: Optional[int] = None,
                     query_ids: Optional[Sequence[int]] = None,
                     arrivals: Optional[Sequence[float]] = None,
                     ) -> Iterator[Query]:
        """Yield queries in arrival order.

        Args:
            count: number of queries; defaults to ``spec.query_count``.
            query_ids: the id of each query, in arrival order; defaults
                to ``0, 1, ...``. A caller that places this stream inside
                a larger one (a grammar class, a drift phase) stamps the
                final ids here rather than copying every query.
            arrivals: the arrival instants, in order; defaults to the
                arrival process's ``arrival_times(count)``. A caller that
                already holds them (to take the envelope) passes them
                here rather than computing them twice.
        """
        spec = self._spec
        total = spec.query_count if count is None else count
        if total < 0:
            raise WorkloadError(f"count must be non-negative, got {total}")
        ids = range(total) if query_ids is None else query_ids
        if len(ids) != total:
            raise WorkloadError(
                f"{len(ids)} query ids given for {total} queries"
            )
        if arrivals is None:
            arrivals = self._arrival_process.arrival_times(total)
        elif len(arrivals) != total:
            raise WorkloadError(
                f"{len(arrivals)} arrival instants given for {total} queries"
            )
        rng = np.random.default_rng(spec.seed)
        templates = self._templates
        hot_probability = spec.hot_template_probability
        jitter = spec.selectivity_jitter
        mean = spec.budget_scale_mean
        sigma = spec.budget_scale_sigma
        log_mean = np.log(mean)

        phase_index = -1
        hot: List[int] = []
        scaled: List[Tuple[Tuple[str, float], ...]] = []
        for query_index in range(total):
            current_phase = query_index // spec.phase_length
            if current_phase != phase_index:
                phase_index = current_phase
                hot = self._draw_hot_templates(rng)
                scaled = self._scale_to_hot_band(rng)
            # Temporal locality: the hot set is favoured. An index into the
            # list consumes exactly the draws rng.choice(hot) would.
            if rng.random() < hot_probability:
                index = hot[int(rng.integers(len(hot)))]
            else:
                index = int(rng.integers(len(templates)))
            bases = scaled[index]
            selectivities: Dict[str, float] = {}
            if bases:
                # One vector draw is the same stream as one scalar draw
                # per predicate.
                for (column, base), uniform in zip(
                        bases, rng.random(len(bases)).tolist()):
                    value = base * (1.0 + jitter * (2.0 * uniform - 1.0))
                    selectivities[column] = min(1.0, max(1e-9, value))
            if sigma == 0:
                budget_scale = mean
            else:
                budget_scale = float(max(1e-6, rng.lognormal(
                    mean=log_mean, sigma=sigma)))
            yield templates[index].instantiate(
                query_id=ids[query_index],
                arrival_time=arrivals[query_index],
                selectivities=selectivities,
                budget_scale=budget_scale,
            )

    # -- internals -------------------------------------------------------------

    def _draw_hot_templates(self, rng: np.random.Generator) -> List[int]:
        """Pick which templates are hot for the next phase."""
        return rng.choice(len(self._templates),
                          size=self._spec.hot_template_count,
                          replace=False).tolist()

    def _scale_to_hot_band(self, rng: np.random.Generator,
                           ) -> List[Tuple[Tuple[str, float], ...]]:
        """Draw the phase's hot data band and scale each template's jittered
        predicates to it.

        Data locality: one center per predicated column per phase, so the
        same band is hit repeatedly within a phase and the same cached
        columns/indexes keep being useful. A band of width w centred at
        ``center`` keeps the nominal selectivity scaled by
        ``w + (1 - w) * center``; each query then jitters that by a factor
        in ``[1 - jitter, 1 + jitter]``. A center is drawn for every
        template predicate; a column predicated twice keeps its first.
        """
        width = self._spec.locality_width
        centers = rng.random(len(self._center_columns)).tolist()
        band: Dict[str, float] = {}
        for column, center in zip(self._center_columns, centers):
            band.setdefault(column, width + (1.0 - width) * center)
        return [tuple((column, nominal * band[column])
                      for column, nominal in jittered)
                for jittered in self._jittered]
