"""A composable, seeded scenario grammar with market-shock fault injection.

Every scenario the repro could previously run was a *well-behaved*
read-only workload: nothing destroyed a cached structure mid-run, no
provider repricing squeezed a tenant, and the recovery paths (directory
deltas, plan-table generations, partitioned reconciliation) were only
exercised by synthetic unit tests. This module is the adversarial
counterpart — a grammar whose sentences are hostile scenarios:

* :class:`QueryClass` — a weighted class of query templates; the
  compiled stream draws each arrival's class from the seeded categorical
  distribution over all classes.
* :class:`FlashCrowd` — an arrival spike: inside the crowd window the
  inter-arrival gap shrinks by ``intensity``.
* :class:`TenantTier` — SLA classes assigned to the tenant population
  (scaled budgets and seed credit), applied by
  :func:`apply_tenant_tiers`.
* Shock specs — :class:`InvalidationShock`, :class:`PriceShock` and
  :class:`BudgetSqueeze` — compiled by :func:`compile_shock_events` into
  the kernel events of :mod:`repro.simulator.events` that inject faults
  mid-run.

:class:`ScenarioGrammar` composes associatively (``a.compose(b)`` is
tuple concatenation of every production) and compiles deterministically:
the same grammar and seed always yield the byte-identical scenario.

The conservation contract under faults: invalidation moves no money
(losses surface as eviction metrics), price shocks scale only what the
*provider* pays, and budget squeezes scale offers whose charges still
mirror into tenant wallets — so credit conservation stays bitwise-exact
through arbitrary shock sequences. ``docs/scenarios.md`` documents the
contract; the chaos property suites pin it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.errors import WorkloadError
from repro.simulator.events import (
    Event,
    ProviderPriceShockEvent,
    StructureInvalidationEvent,
    TenantBudgetSqueezeEvent,
)
from repro.workload.arrival import PhaseChange, TraceArrival
from repro.workload.generator import WorkloadGenerator, WorkloadSpec
from repro.workload.population import (PopulatedWorkload, tier_boundaries,
                                       tier_index_for)
from repro.workload.query import Query
from repro.workload.templates import paper_templates, template_by_name


class GrammarDegeneracyWarning(UserWarning):
    """A grammar compiled, but only after dropping degenerate productions."""


def _require_finite(value: float, what: str, positive: bool = True) -> None:
    """Reject ``value`` unless finite and positive (or non-negative).

    A bare ``<= 0`` check lets NaN through, so finiteness is tested first.
    """
    if math.isfinite(value) and (value > 0 or (not positive and value == 0)):
        return
    sign = "positive" if positive else "non-negative"
    raise WorkloadError(f"{what} must be finite and {sign}, got {value}")


# -- productions ---------------------------------------------------------------


@dataclass(frozen=True)
class QueryClass:
    """A weighted class of query templates.

    ``weight`` is relative: a class with weight 2 receives twice the
    arrivals of a class with weight 1. Zero-weight classes are legal to
    *declare* (composition may zero a class out) but are dropped at
    compile time with a :class:`GrammarDegeneracyWarning`.
    """

    name: str
    templates: Tuple[str, ...]
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("query class name must not be empty")
        if not self.templates:
            raise WorkloadError(
                f"query class {self.name!r} must name at least one template"
            )
        _require_finite(self.weight, f"query class {self.name!r} weight",
                        positive=False)


@dataclass(frozen=True)
class FlashCrowd:
    """An arrival spike: gaps shrink by ``intensity`` inside the window.

    The window is expressed as fractions of the scenario's *nominal*
    span (``query_count * interarrival_s``), so the same crowd spec
    scales with the workload size.
    """

    at_fraction: float
    duration_fraction: float
    intensity: float = 4.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.at_fraction < 1.0:
            raise WorkloadError(
                f"crowd at_fraction must be in [0, 1), got {self.at_fraction}"
            )
        _require_finite(self.duration_fraction, "crowd duration_fraction")
        _require_finite(self.intensity, "crowd intensity")


@dataclass(frozen=True)
class TenantTier:
    """An SLA class: a weighted slice of the population with scaled terms."""

    name: str
    weight: float
    budget_multiplier: float = 1.0
    credit_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("tenant tier name must not be empty")
        _require_finite(self.weight, f"tier {self.name!r} weight",
                        positive=False)
        _require_finite(self.budget_multiplier,
                        f"tier {self.name!r} budget_multiplier")
        _require_finite(self.credit_multiplier,
                        f"tier {self.name!r} credit_multiplier",
                        positive=False)


# -- shock specs ---------------------------------------------------------------


@dataclass(frozen=True)
class InvalidationShock:
    """Destroy cached structures whose key contains ``predicate``.

    An empty predicate destroys everything; ``"index"``/``"column"``
    select a structure kind, a table name selects one table's structures.
    """

    at_fraction: float
    predicate: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.at_fraction <= 1.0:
            raise WorkloadError(
                f"shock at_fraction must be in [0, 1], got {self.at_fraction}"
            )


@dataclass(frozen=True)
class PriceShock:
    """Scale provider build/maintenance pricing by ``factor`` for a window."""

    at_fraction: float
    duration_fraction: float
    factor: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.at_fraction <= 1.0:
            raise WorkloadError(
                f"shock at_fraction must be in [0, 1], got {self.at_fraction}"
            )
        _require_finite(self.duration_fraction, "shock duration_fraction")
        _require_finite(self.factor, "price shock factor")


@dataclass(frozen=True)
class BudgetSqueeze:
    """Scale every tenant's willingness-to-pay by ``factor`` for a window."""

    at_fraction: float
    duration_fraction: float
    factor: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.at_fraction <= 1.0:
            raise WorkloadError(
                f"shock at_fraction must be in [0, 1], got {self.at_fraction}"
            )
        _require_finite(self.duration_fraction, "shock duration_fraction")
        _require_finite(self.factor, "budget squeeze factor")


ShockSpec = Union[InvalidationShock, PriceShock, BudgetSqueeze]


# -- the grammar ---------------------------------------------------------------


@dataclass(frozen=True)
class CompiledScenario:
    """A grammar compiled against a concrete size, rate, and seed."""

    queries: Tuple[Query, ...]
    phase_changes: Tuple[PhaseChange, ...]
    tiers: Tuple[TenantTier, ...]
    shocks: Tuple[ShockSpec, ...]
    description: str = ""

    @property
    def query_count(self) -> int:
        """Number of queries in the compiled stream."""
        return len(self.queries)

    def shock_events(self) -> Tuple[Event, ...]:
        """The kernel events realising this scenario's shock specs."""
        return compile_shock_events(self.shocks, self.queries)


@dataclass(frozen=True)
class ScenarioGrammar:
    """A composable bundle of productions that compiles to a scenario.

    Composition (:meth:`compose`) concatenates every production tuple,
    which makes it associative by construction:
    ``(a | b) | c`` and ``a | (b | c)`` compile byte-identically because
    per-class generator seeds derive from the class's *position* in the
    composed tuple, which tuple concatenation preserves.
    """

    classes: Tuple[QueryClass, ...] = ()
    crowds: Tuple[FlashCrowd, ...] = ()
    tiers: Tuple[TenantTier, ...] = ()
    shocks: Tuple[ShockSpec, ...] = ()

    def compose(self, other: "ScenarioGrammar") -> "ScenarioGrammar":
        """Concatenate two grammars' productions (associative)."""
        return ScenarioGrammar(
            classes=self.classes + other.classes,
            crowds=self.crowds + other.crowds,
            tiers=self.tiers + other.tiers,
            shocks=self.shocks + other.shocks,
        )

    def __or__(self, other: "ScenarioGrammar") -> "ScenarioGrammar":
        return self.compose(other)

    # -- compilation -----------------------------------------------------------

    def _effective_classes(self) -> List[Tuple[int, QueryClass]]:
        """Positive-weight classes with their positions; warns on drops."""
        kept = [(index, cls) for index, cls in enumerate(self.classes)
                if cls.weight > 0]
        dropped = [cls.name for cls in self.classes if cls.weight == 0]
        if dropped:
            warnings.warn(
                "degenerate grammar: dropping zero-weight query "
                f"class(es) {', '.join(sorted(dropped))}",
                GrammarDegeneracyWarning,
                stacklevel=3,
            )
        if not kept:
            warnings.warn(
                "degenerate grammar: no positive-weight query class; "
                "falling back to the uniform all-templates class",
                GrammarDegeneracyWarning,
                stacklevel=3,
            )
            fallback = QueryClass(
                name="all-templates",
                templates=tuple(t.name for t in paper_templates()),
                weight=1.0,
            )
            kept = [(0, fallback)]
        return kept

    def _arrival_times(self, query_count: int,
                      interarrival_s: float) -> List[float]:
        """Arrival instants with flash-crowd windows compressing the gaps."""
        span = query_count * interarrival_s
        windows = sorted(
            (crowd.at_fraction * span,
             min((crowd.at_fraction + crowd.duration_fraction), 1.0) * span,
             crowd.intensity)
            for crowd in self.crowds
        )

        def gap_at(now: float) -> float:
            gap = interarrival_s
            for start, end, intensity in windows:
                if start <= now < end:
                    gap = min(gap, interarrival_s / intensity)
            return gap

        times: List[float] = []
        now = 0.0
        for index in range(query_count):
            if index:
                now += gap_at(now)
            times.append(now)
        return times

    def _crowd_phases(self, query_count: int,
                      interarrival_s: float) -> List[PhaseChange]:
        span = query_count * interarrival_s
        changes: List[PhaseChange] = []
        phase = 1
        for crowd in sorted(self.crowds,
                            key=lambda c: (c.at_fraction, c.duration_fraction)):
            start = crowd.at_fraction * span
            end = min(crowd.at_fraction + crowd.duration_fraction, 1.0) * span
            changes.append(PhaseChange(time_s=start, phase_index=phase,
                                       label="flash-crowd"))
            changes.append(PhaseChange(time_s=end, phase_index=phase + 1,
                                       label="crowd-end"))
            phase += 2
        return changes

    def compile(self, query_count: int, interarrival_s: float = 10.0,
                seed: int = 0) -> CompiledScenario:
        """Deterministically compile the grammar to a concrete scenario.

        The same ``(grammar, query_count, interarrival_s, seed)`` always
        produces the byte-identical :class:`CompiledScenario`: class
        assignment uses one seeded categorical draw, and each class's
        query generator is seeded by ``seed`` plus the class's position
        in the grammar.
        """
        if query_count <= 0:
            raise WorkloadError(
                f"query_count must be positive, got {query_count}"
            )
        if interarrival_s <= 0:
            raise WorkloadError(
                f"interarrival_s must be positive, got {interarrival_s}"
            )
        kept = self._effective_classes()
        weights = np.array([cls.weight for _, cls in kept], dtype=float)
        probabilities = weights / weights.sum()
        rng = np.random.default_rng(seed)
        assignment = rng.choice(len(kept), size=query_count, p=probabilities)
        arrivals = self._arrival_times(query_count, interarrival_s)

        base_spec = WorkloadSpec(query_count=query_count,
                                 interarrival_s=interarrival_s, seed=seed)
        slots: List[Query] = [None] * query_count  # type: ignore[list-item]
        for slot, (position, cls) in enumerate(kept):
            indices = np.flatnonzero(assignment == slot).tolist()
            if not indices:
                continue
            templates = tuple(template_by_name(name)
                              for name in cls.templates)
            class_spec = replace(
                base_spec,
                query_count=len(indices),
                seed=seed + position + 1,
                hot_template_count=min(base_spec.hot_template_count,
                                       len(templates)),
            )
            generator = WorkloadGenerator(
                class_spec,
                templates=templates,
                arrival_process=TraceArrival([arrivals[i] for i in indices]),
            )
            for query in generator.iter_queries(query_ids=indices):
                slots[query.query_id] = query
        queries = tuple(slots)
        class_names = ", ".join(f"{cls.name}:{cls.weight:g}"
                                for _, cls in kept)
        description = (
            f"grammar: {len(kept)} class(es) [{class_names}], "
            f"{len(self.crowds)} crowd(s), {len(self.shocks)} shock(s)"
        )
        return CompiledScenario(
            queries=queries,
            phase_changes=tuple(self._crowd_phases(query_count,
                                                   interarrival_s)),
            tiers=self.tiers,
            shocks=self.shocks,
            description=description,
        )


# -- shock event compilation ---------------------------------------------------


def compile_shock_events(shocks: Sequence[ShockSpec],
                         queries: Sequence[Query]) -> Tuple[Event, ...]:
    """Map shock specs' fractions onto the stream's actual arrival span.

    Windowed shocks compile to an onset/relief *pair* (the relief event
    carries ``factor=1.0``), clamped to the stream's last arrival so no
    event outlives the run. Events are returned in time order; the
    kernel's priority ranks sequence same-instant shocks deterministically.
    """
    if not queries:
        return ()
    return compile_shock_events_for_span(
        shocks, queries[0].arrival_time, queries[-1].arrival_time
    )


def compile_shock_events_for_span(shocks: Sequence[ShockSpec], first: float,
                                  last: float) -> Tuple[Event, ...]:
    """:func:`compile_shock_events` from the arrival span alone.

    The streamed execution path knows the workload's
    :class:`~repro.workload.generator.ArrivalEnvelope` before a single
    query exists; compiling from ``(first, last)`` directly — the same
    floats the eager path reads off the materialised list — yields
    bitwise-identical shock events without materialising anything.
    """
    first = float(first)
    last = float(last)
    span = max(last - first, 0.0)
    events: List[Event] = []
    for shock in shocks:
        onset = first + shock.at_fraction * span
        if isinstance(shock, InvalidationShock):
            events.append(StructureInvalidationEvent(
                time_s=onset,
                predicate=shock.predicate,
                label="invalidation",
            ))
        elif isinstance(shock, PriceShock):
            relief = min(onset + shock.duration_fraction * span, last)
            events.append(ProviderPriceShockEvent(
                time_s=onset, factor=shock.factor, label="price-shock",
            ))
            events.append(ProviderPriceShockEvent(
                time_s=max(relief, onset), factor=1.0,
                label="price-shock-end",
            ))
        elif isinstance(shock, BudgetSqueeze):
            relief = min(onset + shock.duration_fraction * span, last)
            events.append(TenantBudgetSqueezeEvent(
                time_s=onset, factor=shock.factor, label="budget-squeeze",
            ))
            events.append(TenantBudgetSqueezeEvent(
                time_s=max(relief, onset), factor=1.0,
                label="budget-squeeze-end",
            ))
        else:  # pragma: no cover - guarded by the ShockSpec union
            raise WorkloadError(f"unknown shock spec {shock!r}")
    events.sort(key=lambda event: (event.time_s, event.priority))
    return tuple(events)


# -- tenant tiers --------------------------------------------------------------


def apply_tenant_tiers(populated: PopulatedWorkload,
                       tiers: Sequence[TenantTier],
                       seed: int = 0) -> PopulatedWorkload:
    """Assign SLA tiers to the population, rewriting the profiles.

    Assignment is a deterministic seeded categorical draw *per tenant
    index* (:func:`repro.workload.population.tier_index_for` — the same
    helper the generative profile source uses), so tenant ``i``'s tier
    depends only on ``(seed, i)``, never on how many profiles were
    assigned before it. That per-index property is what keeps an eagerly
    tiered population bitwise identical to the profiles a
    :class:`~repro.workload.population.GenerativeProfileSource` derives
    on demand. Queries and lifecycle markers are untouched — only
    ``budget_multiplier`` and ``initial_credit`` scale.
    """
    if not tiers:
        return populated
    boundaries = tier_boundaries(tiers)
    profiles = []
    for index, profile in enumerate(populated.profiles):
        tier = tiers[tier_index_for(seed, index, boundaries)]
        profiles.append(replace(
            profile,
            budget_multiplier=(profile.budget_multiplier
                               * tier.budget_multiplier),
            initial_credit=(profile.initial_credit
                            * tier.credit_multiplier),
        ))
    return PopulatedWorkload(queries=populated.queries,
                             profiles=tuple(profiles),
                             lifecycle=populated.lifecycle)


# -- the textual shock DSL (CLI surface) ---------------------------------------


def parse_shock(text: str) -> ShockSpec:
    """Parse the CLI's compact shock syntax into a shock spec.

    Grammar::

        invalidate@FRAC[:PREDICATE]   e.g. invalidate@0.35:index
        price@FRAC:DUR:FACTOR         e.g. price@0.5:0.2:3.0
        squeeze@FRAC:DUR:FACTOR       e.g. squeeze@0.65:0.25:0.5

    Raises :class:`~repro.errors.WorkloadError` on malformed input (the
    CLI converts that to an argparse exit-2).
    """
    kind, _, rest = text.partition("@")
    if not rest:
        raise WorkloadError(
            f"malformed shock {text!r}: expected KIND@FRACTION[...]"
        )
    parts = rest.split(":")
    try:
        fraction = float(parts[0])
    except ValueError:
        raise WorkloadError(
            f"malformed shock {text!r}: {parts[0]!r} is not a fraction"
        ) from None
    if kind == "invalidate":
        if len(parts) > 2:
            raise WorkloadError(
                f"malformed shock {text!r}: expected invalidate@FRAC[:PREDICATE]"
            )
        predicate = parts[1] if len(parts) == 2 else ""
        return InvalidationShock(at_fraction=fraction, predicate=predicate)
    if kind in ("price", "squeeze"):
        if len(parts) != 3:
            raise WorkloadError(
                f"malformed shock {text!r}: expected {kind}@FRAC:DUR:FACTOR"
            )
        try:
            duration = float(parts[1])
            factor = float(parts[2])
        except ValueError:
            raise WorkloadError(
                f"malformed shock {text!r}: duration and factor must be numbers"
            ) from None
        spec = PriceShock if kind == "price" else BudgetSqueeze
        return spec(at_fraction=fraction, duration_fraction=duration,
                    factor=factor)
    raise WorkloadError(
        f"unknown shock kind {kind!r}; expected invalidate, price, or squeeze"
    )


def parse_query_class(text: str) -> QueryClass:
    """Parse ``NAME:WEIGHT:TPL1+TPL2`` into a :class:`QueryClass`."""
    parts = text.split(":")
    if len(parts) != 3:
        raise WorkloadError(
            f"malformed query class {text!r}: expected NAME:WEIGHT:TPL1+TPL2"
        )
    name, weight_text, template_text = parts
    try:
        weight = float(weight_text)
    except ValueError:
        raise WorkloadError(
            f"malformed query class {text!r}: {weight_text!r} is not a weight"
        ) from None
    templates = tuple(part for part in template_text.split("+") if part)
    if not templates:
        raise WorkloadError(
            f"malformed query class {text!r}: no templates named"
        )
    for template_name in templates:
        template_by_name(template_name)  # validates the name eagerly
    return QueryClass(name=name, templates=templates, weight=weight)


# -- stock grammars ------------------------------------------------------------


def default_shock_grammar() -> ScenarioGrammar:
    """The stock adversarial grammar behind the ``shocks`` scenario family.

    Three weighted template classes, one flash crowd, three tenant
    tiers, and a full market-shock sequence: an index invalidation at
    35% of the run, a 3x provider price shock across the middle, and a
    halving budget squeeze over the tail.
    """
    return ScenarioGrammar(
        classes=(
            QueryClass(name="pricing", weight=3.0, templates=(
                "q1_pricing_summary", "q19_discounted_revenue")),
            QueryClass(name="shipping", weight=2.0, templates=(
                "q3_shipping_priority", "q12_shipping_modes")),
            QueryClass(name="analytics", weight=1.0, templates=(
                "q6_forecast_revenue", "q14_promotion_effect",
                "q10_returned_items")),
        ),
        crowds=(FlashCrowd(at_fraction=0.25, duration_fraction=0.15,
                           intensity=4.0),),
        tiers=(
            TenantTier(name="gold", weight=1.0, budget_multiplier=1.5,
                       credit_multiplier=2.0),
            TenantTier(name="silver", weight=2.0),
            TenantTier(name="bronze", weight=3.0, budget_multiplier=0.6,
                       credit_multiplier=0.5),
        ),
        shocks=(
            InvalidationShock(at_fraction=0.35, predicate="index"),
            PriceShock(at_fraction=0.5, duration_fraction=0.2, factor=3.0),
            BudgetSqueeze(at_fraction=0.65, duration_fraction=0.25,
                          factor=0.5),
        ),
    )


def build_shock_scenario(query_count: int = 400, interarrival_s: float = 10.0,
                         seed: int = 0,
                         extra_shocks: Sequence[ShockSpec] = (),
                         extra_classes: Sequence[QueryClass] = (),
                         ) -> CompiledScenario:
    """Compile the stock shock grammar (plus any extra productions)."""
    grammar = default_shock_grammar()
    if extra_classes or extra_shocks:
        grammar = grammar.compose(ScenarioGrammar(
            classes=tuple(extra_classes), shocks=tuple(extra_shocks),
        ))
    return grammar.compile(query_count=query_count,
                           interarrival_s=interarrival_s, seed=seed)
