"""Population-scale workloads: who issues each query.

The ROADMAP's north star is "heavy traffic from millions of users"; this
module is the layer that turns an anonymous query stream into traffic from
an N-tenant population:

* activity is **Zipf-skewed** — a few tenants issue most of the queries,
  the long tail issues the rest, matching every measured multi-user trace;
* the population **churns** — on a configurable schedule a fraction of the
  active tenants leaves and is replaced by fresh ones, each replacement
  inheriting its predecessor's activity rank (the skew is stationary even
  while identities rotate);
* joins and leaves are announced in bulk as :class:`TenantLifecycleMarker`
  cohorts of population indices — one for the initial population, and one
  per direction per churn wave — which the simulation layer schedules as
  first-class :class:`~repro.simulator.events.TenantArrivalEvent` /
  :class:`~repro.simulator.events.TenantChurnEvent` kernel events. Ids
  become strings only where a query carries one.

Two ways to consume a population:

* :meth:`TenantPopulation.populate` materialises everything up front (the
  original eager path, byte-stable and convenient at small N);
* :meth:`TenantPopulation.stream` yields the same markers and populated
  queries lazily through a :class:`PopulationStream`, in time order, so a
  million-tenant run never holds the whole workload in memory. The eager
  path is implemented by draining the stream, so the two are identical by
  construction.

Tenant profiles are **generative**: :class:`GenerativeProfileSource`
derives any tenant's static profile purely from ``(population seed,
tenant index)`` — no RNG stream is shared with the query-assignment
draws — which is what lets a registry materialise a profile at first
arrival instead of holding the whole population (see
:class:`~repro.economy.tenancy.TenantRegistry`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import (TYPE_CHECKING, Callable, Iterable, Iterator, List,
                    Optional, Sequence, Tuple, Union)

import numpy as np

from repro.errors import WorkloadError
from repro.workload.query import Query

if TYPE_CHECKING:  # deferred: economy imports the cost model, which imports
    # the workload package — a module-level import here would be circular.
    from repro.economy.tenancy import TenantProfile

#: Domain separators for the per-tenant RNG streams. Each derived quantity
#: draws from ``default_rng((separator, seed, index))`` — a dedicated
#: stream per (tenant, purpose) — so any single tenant's profile is
#: computable in O(1) without replaying the draws of the tenants before it.
_MULTIPLIER_STREAM = 0x7E01
_TIER_STREAM = 0x7E02

#: How many queries a :class:`PopulationStream` assigns per vectorized
#: draw. numpy ``Generator.choice`` consumes one uniform per sample, so
#: chunked draws are bitwise identical to one whole-segment draw — the
#: chunk size only bounds memory, never changes the output.
_STREAM_CHUNK = 4096


def tenant_id_for(index: int) -> str:
    """The canonical id of the ``index``-th tenant ever minted."""
    return f"t{index:05d}"


def tenant_index_of(tenant_id: str) -> Optional[int]:
    """Invert :func:`tenant_id_for`; ``None`` for ids outside the scheme.

    Only exact round-trips count (``t00012`` → 12, but ``t12`` or
    ``alice`` → ``None``), so ad-hoc ids can never alias a population
    member.
    """
    if len(tenant_id) < 6 or not tenant_id.startswith("t"):
        return None
    digits = tenant_id[1:]
    if not digits.isdigit():
        return None
    index = int(digits)
    return index if tenant_id_for(index) == tenant_id else None


@dataclass(frozen=True)
class PopulationSpec:
    """Parameters of the tenant population.

    Attributes:
        tenant_count: number of tenants active at any one time.
        zipf_exponent: skew of the activity distribution; tenant of rank
            ``r`` (0-based) is drawn with weight ``1 / (r + 1) ** s``.
            ``0`` gives a uniform population, ``~1.1`` a realistic skew.
        initial_credit: seed credit of every tenant wallet.
        budget_sigma: lognormal sigma of the per-tenant budget multiplier
            (0 gives every tenant the baseline willingness-to-pay).
        churn_period: replace part of the population every this many
            queries; ``0`` disables churn.
        churn_fraction: fraction of the active tenants replaced per wave
            (``0`` also disables churn).
        seed: RNG seed; equal specs produce equal populations.
    """

    tenant_count: int = 100
    zipf_exponent: float = 1.1
    initial_credit: float = 50.0
    budget_sigma: float = 0.0
    churn_period: int = 0
    churn_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.tenant_count <= 0:
            raise WorkloadError("tenant_count must be positive")
        if not self.zipf_exponent >= 0:
            raise WorkloadError("zipf_exponent must be non-negative")
        if not self.initial_credit >= 0:
            raise WorkloadError("initial_credit must be non-negative")
        if not self.budget_sigma >= 0:
            raise WorkloadError("budget_sigma must be non-negative")
        if self.churn_period < 0:
            raise WorkloadError("churn_period must be non-negative")
        if not 0.0 <= self.churn_fraction <= 1.0:
            raise WorkloadError("churn_fraction must be in [0, 1]")
        if self.seed < 0:
            raise WorkloadError("seed must be non-negative")


#: A lifecycle cohort: population indices, as a ``range`` (a freshly
#: minted block) or a tuple (a churn wave's leavers, in slot order).
Cohort = Union[range, Tuple[int, ...]]


@dataclass(frozen=True)
class TenantLifecycleMarker:
    """A cohort of tenants joining (``"arrival"``) or leaving (``"churn"``)
    at one instant; ``tenants`` holds their population indices. Arrivals
    are minted in index order, so an arrival cohort is a step-1 ``range``;
    a churn cohort lists its leavers in slot order."""

    time_s: float
    tenants: Cohort
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("arrival", "churn"):
            raise WorkloadError(
                f"kind must be 'arrival' or 'churn', got {self.kind!r}"
            )
        if self.kind == "arrival" and (not isinstance(self.tenants, range)
                                       or self.tenants.step != 1):
            raise WorkloadError(
                "an arrival cohort is a step-1 range, got "
                f"{self.tenants!r}"
            )


@dataclass(frozen=True)
class PopulatedWorkload:
    """A query stream with tenants assigned, plus the population metadata."""

    queries: Tuple[Query, ...]
    profiles: Tuple["TenantProfile", ...]
    lifecycle: Tuple[TenantLifecycleMarker, ...]

    @property
    def tenant_count(self) -> int:
        """Total tenants that ever existed (initial + churn replacements)."""
        return len(self.profiles)

    @property
    def churn_waves(self) -> int:
        """Number of tenants churned (summed over every churn marker's
        cohort); the tables print it as "churn waves"."""
        return sum(len(marker.tenants) for marker in self.lifecycle
                   if marker.kind == "churn")


def tier_boundaries(tiers: Sequence) -> np.ndarray:
    """The cumulative tier-probability boundaries of a weighted tier list.

    ``tiers`` is duck-typed (anything carrying ``weight``); the grammar
    layer's :class:`~repro.workload.grammar.TenantTier` is the usual
    concrete type, kept out of this module to avoid an import cycle.
    """
    weights = np.array([tier.weight for tier in tiers], dtype=float)
    total = weights.sum()
    if total <= 0:
        raise WorkloadError("tenant tiers must have positive total weight")
    return np.cumsum(weights / total)


def tier_index_for(seed: int, index: int, boundaries: np.ndarray) -> int:
    """The SLA tier of tenant ``index``, derived from its own RNG stream.

    Mirrors ``numpy.random.Generator.choice(p=...)`` — one uniform
    searched into the cumulative boundaries — but draws the uniform from
    the tenant's dedicated stream, so the assignment of tenant *i* never
    depends on how many tenants were assigned before it. Both the eager
    tier rewrite (:func:`repro.workload.grammar.apply_tenant_tiers`) and
    the generative source below call this exact function, which is what
    keeps their tiered profiles bitwise identical.
    """
    uniform = np.random.default_rng((_TIER_STREAM, seed, index)).random()
    return min(int(np.searchsorted(boundaries, uniform, side="right")),
               len(boundaries) - 1)


@dataclass(frozen=True)
class GenerativeProfileSource:
    """Derives any tenant's static profile purely from ``(seed, index)``.

    The source is tiny and picklable: it carries the population spec plus
    the (optional) SLA tiers, and every derivation is a pure function of
    the tenant's index — dedicated RNG streams per tenant, no shared
    cursor. ``profile_for(i)`` therefore equals the ``i``-th profile the
    eager :meth:`TenantPopulation.populate` path mints (including after
    churn replacements and under tier rewrites), which the registry layer
    relies on to materialise profiles on demand.

    Profiles are *static* by contract: the simulated arrival instants
    live in the lifecycle event stream, not in the profile (a profile
    must be derivable before, during, or after the tenant's tenure and
    always compare equal).
    """

    spec: PopulationSpec
    tiers: Tuple = ()

    def profile_for(self, index: int,
                    tier: Optional[int] = None) -> "TenantProfile":
        """The static profile of the ``index``-th tenant ever minted;
        ``tier`` is its :meth:`tier_of` if the caller drew it already."""
        from repro.economy.tenancy import TenantProfile

        if index < 0:
            raise WorkloadError(f"tenant index must be >= 0, got {index}")
        multiplier = self.base_multiplier(index)
        if self.tiers:
            if tier is None:
                tier = self.tier_of(index)
            multiplier = multiplier * self.tiers[tier].budget_multiplier
        return TenantProfile(
            tenant_id=tenant_id_for(index),
            initial_credit=self.initial_credit_for(index, tier),
            budget_multiplier=multiplier,
        )

    def base_multiplier(self, index: int) -> float:
        """The pre-tier budget multiplier of tenant ``index``."""
        spec = self.spec
        if spec.budget_sigma <= 0:
            return 1.0
        rng = np.random.default_rng((_MULTIPLIER_STREAM, spec.seed, index))
        return float(max(1e-6, rng.lognormal(mean=0.0,
                                             sigma=spec.budget_sigma)))

    @cached_property
    def _boundaries(self) -> np.ndarray:
        """The tiers' cumulative boundaries, computed once per source."""
        return tier_boundaries(self.tiers)

    def tier_of(self, index: int) -> int:
        """The tier index assigned to tenant ``index`` (requires tiers)."""
        return tier_index_for(self.spec.seed, index, self._boundaries)

    def initial_credit_for(self, index: int,
                           tier: Optional[int] = None) -> float:
        """The seed credit of tenant ``index`` (cheaper than a profile);
        ``tier`` as for :meth:`profile_for`."""
        credit = self.spec.initial_credit
        if self.tiers:
            if tier is None:
                tier = self.tier_of(index)
            credit = credit * self.tiers[tier].credit_multiplier
        return credit

    def index_of(self, tenant_id: str) -> Optional[int]:
        """The population index behind ``tenant_id``; ``None`` if ad-hoc."""
        return tenant_index_of(tenant_id)


class PopulationStream:
    """Lazily populates a query stream: markers and queries in time order.

    Iterating yields :class:`TenantLifecycleMarker` and populated
    :class:`~repro.workload.query.Query` objects interleaved in
    non-decreasing time order: one arrival marker over ``range(0, N)`` for
    the initial population, then per churn wave one arrival marker over
    the freshly minted range and one churn marker listing the leavers in
    slot order, ahead of the first query of the segment that follows.
    Memory is bounded by the *concurrently active* population — the slot
    index array, the Zipf weight vector, and one draw chunk — never by the
    total number of queries or tenants ever minted.

    The stream is single-use; after exhaustion the population shape is
    available as :attr:`tenants_minted` / :attr:`churn_events` /
    :attr:`queries_emitted`.

    Args:
        spec: the population shape.
        queries: the base workload, in arrival order (any iterable; a
            generator keeps the whole pipeline lazy).
        source: profile source; defaults to a fresh one over ``spec``.
            Only consulted through ``on_profile`` — query assignment
            itself needs ids, not profiles.
        on_profile: optional callback invoked with each freshly minted
            tenant's profile (:meth:`TenantPopulation.populate` collects
            them; a cell passes ``None``, its registry derives on demand).
        chunk_size: upper bound on queries per vectorized draw.
    """

    def __init__(self, spec: PopulationSpec, queries: Iterable[Query],
                 source: Optional[GenerativeProfileSource] = None,
                 on_profile: Optional[Callable] = None,
                 chunk_size: int = _STREAM_CHUNK) -> None:
        if chunk_size <= 0:
            raise WorkloadError("chunk_size must be positive")
        self._spec = spec
        self._source = source or GenerativeProfileSource(spec=spec)
        self._queries = queries
        self._on_profile = on_profile
        self._chunk = chunk_size
        self._started = False
        self.tenants_minted = 0
        #: Tenants churned so far (not churn markers: a wave churns many).
        self.churn_events = 0
        self.queries_emitted = 0
        self.start_s: Optional[float] = None

    @property
    def spec(self) -> PopulationSpec:
        """The population specification."""
        return self._spec

    @property
    def source(self) -> GenerativeProfileSource:
        """The profile source minting this stream's tenants."""
        return self._source

    @property
    def tenant_count(self) -> int:
        """:attr:`tenants_minted`, named as on :class:`PopulatedWorkload`."""
        return self.tenants_minted

    @property
    def churn_waves(self) -> int:
        """Tenants churned so far (:attr:`churn_events`), named as on
        :class:`PopulatedWorkload`."""
        return self.churn_events

    def __iter__(self) -> Iterator[Union[TenantLifecycleMarker, Query]]:
        if self._started:
            raise WorkloadError("a PopulationStream is single-use")
        self._started = True
        spec = self._spec
        iterator = iter(self._queries)
        pending = next(iterator, None)
        if pending is None:
            raise WorkloadError("cannot populate an empty workload")
        rng = np.random.default_rng(spec.seed)
        self.start_s = pending.arrival_time
        # Slot r holds the index of the tenant of activity rank r; churn
        # replaces the slot's occupant but the slot keeps its Zipf weight,
        # so the skew stays stationary while identities rotate.
        cohort = self._mint(spec.tenant_count)
        slots = np.arange(cohort.start, cohort.stop, dtype=np.int64)
        weights = self._slot_weights()
        yield TenantLifecycleMarker(time_s=self.start_s, tenants=cohort,
                                    kind="arrival")
        # Tenants are drawn one inter-churn segment at a time: the weights
        # are constant between waves, so vectorized choice() draws replace
        # a per-query O(tenant_count) CDF rebuild — the difference between
        # seconds and hours at population scale.
        churning = bool(spec.churn_period) and spec.churn_fraction > 0
        while pending is not None:
            if churning and self.queries_emitted:
                for marker in self._churn_wave(slots, rng,
                                               pending.arrival_time):
                    yield marker
            remaining = spec.churn_period if churning else None
            while pending is not None and (remaining is None or remaining > 0):
                cap = (self._chunk if remaining is None
                       else min(self._chunk, remaining))
                buffer = [pending]
                pending = None
                while len(buffer) < cap:
                    item = next(iterator, None)
                    if item is None:
                        break
                    buffer.append(item)
                draws = rng.choice(len(slots), size=len(buffer), p=weights)
                for query, index in zip(buffer, slots[draws].tolist()):
                    yield query.with_tenant(tenant_id_for(index))
                self.queries_emitted += len(buffer)
                if remaining is not None:
                    remaining -= len(buffer)
                if remaining is None or remaining > 0:
                    pending = next(iterator, None)
            if pending is None:
                pending = next(iterator, None)

    # -- internals -------------------------------------------------------------

    def _slot_weights(self) -> np.ndarray:
        """Normalised Zipf weights over the population slots."""
        ranks = np.arange(1, self._spec.tenant_count + 1, dtype=float)
        raw = ranks ** (-self._spec.zipf_exponent)
        return raw / raw.sum()

    def _mint(self, count: int) -> range:
        """Mint the next ``count`` tenants (profiles derive purely from the
        index); returns their indices."""
        cohort = range(self.tenants_minted, self.tenants_minted + count)
        self.tenants_minted = cohort.stop
        if self._on_profile is not None:
            for index in cohort:
                self._on_profile(self._source.profile_for(index))
        return cohort

    def _churn_wave(self, slots: np.ndarray, rng: np.random.Generator,
                    now_s: float) -> Iterator[TenantLifecycleMarker]:
        """Replace a fraction of the active tenants; yields the wave's two
        markers.

        The replacements are minted in slot order, so the arrival range
        and the leavers pair up slot by slot. The arrival marker precedes
        the churn marker; at equal times the kernel also dispatches
        arrivals first (priority 4 < 6).
        """
        spec = self._spec
        count = max(1, int(round(spec.churn_fraction * len(slots))))
        chosen = np.sort(rng.choice(len(slots), size=min(count, len(slots)),
                                    replace=False))
        leaving = tuple(slots[chosen].tolist())
        arriving = self._mint(len(chosen))
        slots[chosen] = arriving
        self.churn_events += len(chosen)
        yield TenantLifecycleMarker(time_s=now_s, tenants=arriving,
                                    kind="arrival")
        yield TenantLifecycleMarker(time_s=now_s, tenants=leaving,
                                    kind="churn")


class TenantPopulation:
    """Assigns an N-tenant population to an existing query stream."""

    def __init__(self, spec: PopulationSpec = PopulationSpec()) -> None:
        self._spec = spec

    @property
    def spec(self) -> PopulationSpec:
        """The population specification."""
        return self._spec

    # -- generation ------------------------------------------------------------

    def stream(self, queries: Iterable[Query],
               source: Optional[GenerativeProfileSource] = None,
               on_profile: Optional[Callable] = None) -> PopulationStream:
        """The lazy population stream over ``queries`` (see above)."""
        return PopulationStream(self._spec, queries, source=source,
                                on_profile=on_profile)

    def populate(self, queries: Sequence[Query]) -> PopulatedWorkload:
        """Assign a tenant to every query and derive the lifecycle markers.

        Queries keep their ids, arrival times, and selectivities — only
        ``tenant_id`` changes — so the same workload replayed single-tenant
        and populated differs in nothing but who pays for each query.

        Implemented by draining :meth:`stream`, so the eager and streamed
        paths are identical by construction — the fidelity gate the
        bounded-memory execution mode rests on.

        Args:
            queries: the base workload, in arrival order.

        Returns:
            The populated workload (queries, tenant profiles, lifecycle).
        """
        profiles: List["TenantProfile"] = []
        populated: List[Query] = []
        lifecycle: List[TenantLifecycleMarker] = []
        for item in self.stream(queries, on_profile=profiles.append):
            if isinstance(item, TenantLifecycleMarker):
                lifecycle.append(item)
            else:
                populated.append(item)
        return PopulatedWorkload(
            queries=tuple(populated),
            profiles=tuple(profiles),
            lifecycle=tuple(lifecycle),
        )
