"""The workload layer emits the same streams as its straightforward form.

The generator, the population stream and the scenario grammar are tuned
for set-up time: vector draws, per-template constants, query ids stamped
at instantiation and one constructor call per copy. This module keeps a
plain reference of each algorithm (``rng.choice`` over the hot list, one
``rng.random()`` per predicate, ``dataclasses.replace`` for every rewrite)
and requires every emitted query and lifecycle marker to equal the
reference's field for field, ``repr`` included, so a float or a numpy
scalar type cannot drift unseen. A second group counts ``Query``
constructions per emitted query.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.arrival import FixedInterarrival, TraceArrival
from repro.workload.generator import WorkloadGenerator, WorkloadSpec
from repro.workload.grammar import (FlashCrowd, QueryClass, ScenarioGrammar,
                                    TenantTier, default_shock_grammar)
from repro.workload.population import (GenerativeProfileSource,
                                       PopulationSpec, PopulationStream,
                                       TenantLifecycleMarker, tenant_id_for,
                                       tier_boundaries, tier_index_for)
from repro.workload.query import Query
from repro.workload.scenarios import (_scenario_process, build_scenario,
                                      drifting_mix_workload)
from repro.workload.templates import paper_templates, template_by_name

TEMPLATES = paper_templates()
TEMPLATE_NAMES = tuple(template.name for template in TEMPLATES)


# -- the reference algorithms --------------------------------------------------


def reference_queries(spec, templates, arrival_process):
    """The generator's draws, one scalar draw at a time."""
    rng = np.random.default_rng(spec.seed)
    arrivals = arrival_process.arrival_times(spec.query_count)
    phase_index = -1
    hot_indices = []
    hot_centers = {}
    queries = []
    for query_index in range(spec.query_count):
        if query_index // spec.phase_length != phase_index:
            phase_index = query_index // spec.phase_length
            hot_indices = list(rng.choice(len(templates),
                                          size=spec.hot_template_count,
                                          replace=False))
            hot_centers = {}
            for template in templates:
                for predicate in template.predicates:
                    hot_centers.setdefault(predicate.qualified_column,
                                           float(rng.random()))
        if rng.random() < spec.hot_template_probability:
            template = templates[int(rng.choice(hot_indices))]
        else:
            template = templates[int(rng.integers(len(templates)))]
        selectivities = {}
        for predicate in template.predicates:
            if predicate.selectivity is None:
                continue
            center = hot_centers.get(predicate.qualified_column, 0.5)
            band_scale = (spec.locality_width
                          + (1.0 - spec.locality_width) * center)
            jitter = 1.0 + spec.selectivity_jitter * (2.0 * rng.random() - 1.0)
            value = predicate.selectivity * band_scale * jitter
            selectivities[predicate.qualified_column] = float(
                min(1.0, max(1e-9, value)))
        if spec.budget_scale_sigma == 0:
            budget_scale = spec.budget_scale_mean
        else:
            budget_scale = float(max(1e-6, rng.lognormal(
                mean=np.log(spec.budget_scale_mean),
                sigma=spec.budget_scale_sigma)))
        predicates = tuple(
            replace(predicate,
                    selectivity=selectivities[predicate.qualified_column])
            if predicate.qualified_column in selectivities else predicate
            for predicate in template.predicates)
        queries.append(Query(
            query_id=query_index, template_name=template.name,
            table_name=template.table_name, predicates=predicates,
            projection_columns=template.projection_columns,
            order_by_columns=template.order_by_columns,
            aggregation_factor=template.aggregation_factor,
            join_tables=template.join_tables,
            parallel_fraction=template.parallel_fraction,
            base_cost_factor=template.base_cost_factor,
            arrival_time=arrivals[query_index], budget_scale=budget_scale))
    return queries


def reference_population(spec, queries):
    """Markers and populated queries, one whole segment per draw."""
    rng = np.random.default_rng(spec.seed)
    minted = spec.tenant_count
    slots = np.arange(0, minted, dtype=np.int64)
    raw = np.arange(1, spec.tenant_count + 1, dtype=float) ** (
        -spec.zipf_exponent)
    weights = raw / raw.sum()
    items = [TenantLifecycleMarker(time_s=queries[0].arrival_time,
                                   tenants=range(0, minted), kind="arrival")]
    churning = bool(spec.churn_period) and spec.churn_fraction > 0
    segment = spec.churn_period if churning else len(queries)
    for start in range(0, len(queries), segment):
        if start:
            now = queries[start].arrival_time
            count = max(1, int(round(spec.churn_fraction * len(slots))))
            chosen = np.sort(rng.choice(len(slots),
                                        size=min(count, len(slots)),
                                        replace=False))
            leaving = tuple(slots[chosen].tolist())
            arriving = range(minted, minted + len(chosen))
            minted = arriving.stop
            slots[chosen] = arriving
            items.append(TenantLifecycleMarker(time_s=now, tenants=arriving,
                                               kind="arrival"))
            items.append(TenantLifecycleMarker(time_s=now, tenants=leaving,
                                               kind="churn"))
        batch = queries[start:start + segment]
        draws = rng.choice(len(slots), size=len(batch), p=weights)
        items.extend(replace(query, tenant_id=tenant_id_for(index))
                     for query, index in zip(batch, slots[draws].tolist()))
    return items


def reference_compile(grammar, query_count, interarrival_s, seed):
    """The grammar's query list, each class's queries re-stamped by id."""
    kept = grammar._effective_classes()
    weights = np.array([cls.weight for _, cls in kept], dtype=float)
    rng = np.random.default_rng(seed)
    assignment = rng.choice(len(kept), size=query_count,
                            p=weights / weights.sum())
    arrivals = grammar._arrival_times(query_count, interarrival_s)
    base = WorkloadSpec(query_count=query_count,
                        interarrival_s=interarrival_s, seed=seed)
    slots = [None] * query_count
    for slot, (position, cls) in enumerate(kept):
        indices = [i for i in range(query_count) if assignment[i] == slot]
        if not indices:
            continue
        templates = tuple(template_by_name(name) for name in cls.templates)
        spec = replace(base, query_count=len(indices),
                       seed=seed + position + 1,
                       hot_template_count=min(base.hot_template_count,
                                              len(templates)))
        queries = reference_queries(
            spec, templates, TraceArrival([arrivals[i] for i in indices]))
        for local, query in enumerate(queries):
            slots[indices[local]] = replace(query, query_id=indices[local])
    return slots


def reference_drifting_mix(spec, pools):
    """The drift scenario's queries, each phase re-stamped by id."""
    total = spec.query_count
    arrivals = FixedInterarrival(spec.interarrival_s).arrival_times(total)
    per_phase = [total // len(pools)] * len(pools)
    for index in range(total % len(pools)):
        per_phase[index] += 1
    queries = []
    cursor = 0
    for phase_index, (names, size) in enumerate(zip(pools, per_phase)):
        if size == 0:
            continue
        templates = tuple(template_by_name(name) for name in names)
        phase_spec = replace(spec, query_count=size,
                             seed=spec.seed + phase_index,
                             hot_template_count=min(spec.hot_template_count,
                                                    len(templates)))
        for query in reference_queries(
                phase_spec, templates,
                TraceArrival(arrivals[cursor:cursor + size])):
            queries.append(replace(query, query_id=cursor + query.query_id))
        cursor += size
    return queries


def field_by_field(items):
    """Every field of every item, as (type, name, repr) triples."""
    return [(type(item).__name__,
             tuple((f.name, repr(getattr(item, f.name)))
                   for f in fields(item)))
            for item in items]


# -- strategies ----------------------------------------------------------------


template_subsets = st.lists(st.sampled_from(TEMPLATES), min_size=1,
                            max_size=len(TEMPLATES), unique_by=lambda t: t.name)


@st.composite
def workload_specs(draw, template_count=len(TEMPLATES), max_queries=120):
    """A spec whose hot set fits ``template_count`` templates."""
    sigma = draw(st.sampled_from([0.0, 0.15, 0.6]))
    return WorkloadSpec(
        query_count=draw(st.integers(min_value=1, max_value=max_queries)),
        interarrival_s=draw(st.sampled_from([0.5, 1.0, 10.0])),
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        hot_template_count=draw(st.integers(min_value=1,
                                            max_value=template_count)),
        hot_template_probability=draw(st.sampled_from([0.0, 0.5, 0.85, 1.0])),
        phase_length=draw(st.integers(min_value=1, max_value=60)),
        locality_width=draw(st.sampled_from([0.05, 0.25, 1.0])),
        selectivity_jitter=draw(st.sampled_from([0.0, 0.2, 0.9])),
        budget_scale_mean=draw(st.sampled_from([1.0, 0.5, 3])),
        budget_scale_sigma=sigma,
    )


population_specs = st.builds(
    PopulationSpec,
    tenant_count=st.integers(min_value=1, max_value=40),
    zipf_exponent=st.sampled_from([0.0, 1.1, 2.0]),
    budget_sigma=st.sampled_from([0.0, 0.3]),
    churn_period=st.integers(min_value=0, max_value=30),
    churn_fraction=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    seed=st.integers(min_value=0, max_value=1000),
)

query_classes = st.builds(
    QueryClass,
    name=st.sampled_from(["a", "b", "c"]),
    templates=st.lists(st.sampled_from(TEMPLATE_NAMES), min_size=1,
                       max_size=4).map(tuple),
    weight=st.floats(min_value=0.1, max_value=5.0),
)

flash_crowds = st.builds(
    FlashCrowd,
    at_fraction=st.floats(min_value=0.0, max_value=0.9),
    duration_fraction=st.floats(min_value=0.05, max_value=0.5),
    intensity=st.floats(min_value=1.0, max_value=8.0),
)


# -- the equivalence properties ------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_generator_matches_reference(data):
    templates = tuple(data.draw(template_subsets))
    spec = data.draw(workload_specs(template_count=len(templates)))
    new = WorkloadGenerator(spec, templates=templates).generate()
    ref = reference_queries(spec, templates,
                            FixedInterarrival(spec.interarrival_s))
    assert field_by_field(new) == field_by_field(ref)


@settings(max_examples=30, deadline=None)
@given(spec=workload_specs(), population=population_specs,
       chunk=st.integers(min_value=1, max_value=50))
def test_population_stream_matches_reference(spec, population, chunk):
    generator = WorkloadGenerator(spec)
    new = list(PopulationStream(population, generator.iter_queries(),
                                chunk_size=chunk))
    ref = reference_population(population, generator.generate())
    assert field_by_field(new) == field_by_field(ref)


@settings(max_examples=25, deadline=None)
@given(classes=st.lists(query_classes, min_size=1, max_size=3),
       crowds=st.lists(flash_crowds, max_size=2),
       query_count=st.integers(min_value=1, max_value=150),
       interarrival_s=st.sampled_from([1.0, 10.0]),
       seed=st.integers(min_value=0, max_value=1000))
def test_grammar_compile_matches_reference(classes, crowds, query_count,
                                           interarrival_s, seed):
    grammar = ScenarioGrammar(classes=tuple(classes), crowds=tuple(crowds))
    new = grammar.compile(query_count=query_count,
                          interarrival_s=interarrival_s, seed=seed).queries
    ref = reference_compile(grammar, query_count, interarrival_s, seed)
    assert field_by_field(new) == field_by_field(ref)


@settings(max_examples=15, deadline=None)
@given(query_count=st.integers(min_value=1, max_value=150),
       interarrival_s=st.sampled_from([1.0, 10.0]),
       seed=st.integers(min_value=0, max_value=1000))
def test_phase_and_drift_scenarios_match_reference(query_count,
                                                   interarrival_s, seed):
    spec = WorkloadSpec(query_count=query_count,
                        interarrival_s=interarrival_s, seed=seed)
    process, _ = _scenario_process("phase-shift", interarrival_s, seed,
                                   query_count)
    phase = build_scenario("phase-shift", query_count=query_count,
                           interarrival_s=interarrival_s, seed=seed)
    assert field_by_field(phase.queries) == field_by_field(
        reference_queries(spec, TEMPLATES, process))
    pools = [TEMPLATE_NAMES[:4], TEMPLATE_NAMES[2:], TEMPLATE_NAMES[5:]]
    drift, _ = drifting_mix_workload(spec, pools)
    assert field_by_field(drift) == field_by_field(
        reference_drifting_mix(spec, pools))


@settings(max_examples=20, deadline=None)
@given(population=population_specs,
       weights=st.lists(st.floats(min_value=0.1, max_value=4.0), min_size=1,
                        max_size=4))
def test_tiered_source_matches_per_call_boundaries(population, weights):
    tiers = tuple(TenantTier(name=f"tier{i}", weight=weight,
                             budget_multiplier=1.0 + i,
                             credit_multiplier=0.5 * (i + 1))
                  for i, weight in enumerate(weights))
    source = GenerativeProfileSource(spec=population, tiers=tiers)
    for index in range(60):
        assert source.tier_of(index) == tier_index_for(
            population.seed, index, tier_boundaries(tiers))


# -- constructions per emitted query -------------------------------------------


@pytest.fixture
def constructions(monkeypatch):
    """Counts every ``Query`` construction: ``__init__`` and
    ``dataclasses.replace`` both run ``__post_init__``."""
    calls = []
    original = Query.__post_init__

    def counting(self):
        calls.append(self.query_id)
        original(self)

    monkeypatch.setattr(Query, "__post_init__", counting)
    return calls


def test_generator_builds_each_query_once(constructions):
    queries = WorkloadGenerator(WorkloadSpec(query_count=300)).generate()
    assert len(constructions) == len(queries)


def test_population_stream_copies_each_query_once(constructions):
    generator = WorkloadGenerator(WorkloadSpec(query_count=300))
    stream = PopulationStream(PopulationSpec(tenant_count=20,
                                             churn_period=50),
                              generator.iter_queries())
    queries = [item for item in stream if isinstance(item, Query)]
    # One instantiation plus one tenant copy.
    assert len(constructions) == 2 * len(queries) == 600


def test_grammar_builds_each_query_once(constructions):
    compiled = default_shock_grammar().compile(query_count=300,
                                               interarrival_s=1.0)
    assert len(constructions) == compiled.query_count == 300
    assert [query.query_id for query in compiled.queries] == list(range(300))


def test_drift_scenario_builds_each_query_once(constructions):
    scenario = build_scenario("mix-drift", query_count=200)
    assert len(constructions) == scenario.query_count == 200
    assert [query.query_id for query in scenario.queries] == list(range(200))


# -- arrival instants per cell -------------------------------------------------


def test_plain_cell_draws_its_arrival_instants_once(monkeypatch):
    """A plain tenant cell takes its envelope and its queries from one
    ``arrival_times`` array, and still streams the generator's queries."""
    from repro.experiments.tenants import (TenantExperimentConfig,
                                           cell_arrivals, run_tenant_cell)

    config = TenantExperimentConfig(tenant_count=8, query_count=120,
                                    churn_period=40, seed=2)
    generator = WorkloadGenerator(config.workload_spec())
    reference = generator.generate()
    envelope = generator.arrival_envelope()
    calls = []
    original = FixedInterarrival.arrival_times

    def counting(self, count):
        calls.append(count)
        return original(self, count)

    monkeypatch.setattr(FixedInterarrival, "arrival_times", counting)
    arrivals = cell_arrivals(config)
    queries = [item for item in arrivals.items if isinstance(item, Query)]
    assert calls == [120]
    assert arrivals.envelope == envelope
    assert queries == [expected.with_tenant(query.tenant_id)
                       for expected, query in zip(reference, queries)]
    assert len(queries) == len(reference)
    calls.clear()
    run_tenant_cell(config)
    assert calls == [120]
