"""The pure rules of :mod:`repro.economy.decisions` against the engine
code they replaced (``decision_oracle``), bit for bit.

Hypothesis draws plan rows (prices with ties, times, existing flags and
back-end rows), budgets, ownership sets and remote sets, with
``divide_regret`` on and off. Regret attribution is checked through the
one applier, :meth:`EconomyEngine._distribute_regret`, over a stub cache
that answers ownership and remote entries as a partition would. Every
float is compared through ``float.hex``.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import decision_oracle as oracle  # noqa: E402
from repro.costmodel.execution import ExecutionEstimate  # noqa: E402
from repro.distcache.engine import PartitionedEconomyEngine  # noqa: E402
from repro.economy.decisions import (  # noqa: E402
    attribute_regret,
    budget_reference,
    build_pieces,
    offer_rows,
    remote_priced,
)
from repro.economy.engine import (  # noqa: E402
    EconomyConfig,
    EconomyEngine,
    _RowCandidate,
)
from repro.economy.negotiation import PlanSelection, negotiate  # noqa: E402
from repro.economy.pricing import PricedPlan  # noqa: E402
from repro.economy.regret import RegretTracker  # noqa: E402
from repro.economy.user_model import UserModel  # noqa: E402
from repro.planner.plan import PlanKind, QueryPlan  # noqa: E402
from repro.planner.skyline import skyline_indices  # noqa: E402
from repro.structures.cached_column import CachedColumn  # noqa: E402
from repro.structures.cached_index import CachedIndex  # noqa: E402
from repro.workload.query import Query  # noqa: E402

QUERY = Query(query_id=0, template_name="t", table_name="lineitem",
              predicates=(), projection_columns=("l_tax",))
NAMES = ("l_tax", "l_discount", "l_quantity", "l_shipdate")
COLUMNS = tuple(CachedColumn("lineitem", name) for name in NAMES)
INDEXES = (CachedIndex("lineitem", ("l_tax",)),
           CachedIndex("lineitem", ("l_discount", "l_quantity")),
           CachedIndex("lineitem", ("l_shipdate", "l_tax", "l_discount")))
STRUCTURES = COLUMNS + INDEXES
KEYS = tuple(structure.key for structure in STRUCTURES)

# Few distinct values, so ties between rows are common.
prices = st.sampled_from([0.0, 0.25, 1.0 / 3.0, 0.5, 1.0, 2.0, 7.5])
times = st.sampled_from([0.001, 0.5, 1.0, 1.0 + 1e-13, 2.0, 9.0])
key_sets = st.sets(st.sampled_from(KEYS))
regrets = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)
missing_sets = st.lists(st.sampled_from(STRUCTURES), unique=True,
                        max_size=5).map(tuple)
surcharges = st.tuples(*(st.floats(min_value=0.0, max_value=10.0)
                         for _ in range(3)))


def estimate(price: float, time_s: float, network_dollars: float = 0.0
             ) -> ExecutionEstimate:
    return ExecutionEstimate(
        cost_units=1.0, io_operations=0.0, cpu_seconds=0.0,
        network_bytes=0.0, response_time_s=time_s, cpu_dollars=price,
        io_dollars=0.0, network_dollars=network_dollars)


@st.composite
def plan_rows(draw):
    """Priced plans as the scalar pipeline hands them to negotiation."""
    count = draw(st.integers(min_value=1, max_value=8))
    rows = []
    for _ in range(count):
        price, time_s = draw(prices), draw(times)
        # A back-end plan relies on no cache structure, so it is existing.
        kind = (PlanKind.BACKEND if draw(st.integers(0, 4)) == 0
                else PlanKind.CACHE_COLUMN_SCAN)
        new = (() if kind is PlanKind.BACKEND or draw(st.booleans())
               else (COLUMNS[0],))
        rows.append(PricedPlan(
            plan=QueryPlan(query=QUERY, kind=kind,
                           execution=estimate(price, time_s),
                           structures=new),
            execution_dollars=price, amortized_dollars=0.0,
            maintenance_dollars=0.0, new_structures=new,
            amortized_by_structure={}))
    return rows


def columns_of(priced):
    return ([plan.price for plan in priced],
            [plan.response_time_s for plan in priced],
            [plan.is_existing for plan in priced])


def first_backend(priced):
    return next((row for row, plan in enumerate(priced)
                 if plan.plan.kind is PlanKind.BACKEND), None)


@settings(max_examples=300, deadline=None)
@given(priced=plan_rows(), data=st.data())
def test_offer_rows_is_ensure_existing_plan(priced, data):
    prices_, _, existing = columns_of(priced)
    selected = sorted(data.draw(st.sets(
        st.integers(min_value=0, max_value=len(priced) - 1))))
    expected = oracle.ensure_existing_plan(
        priced, [priced[row] for row in selected])
    offered = [priced[row] for row in offer_rows(selected, prices_,
                                                 existing)]
    assert [id(plan) for plan in offered] == [id(plan) for plan in expected]


@settings(max_examples=300, deadline=None)
@given(priced=plan_rows())
def test_budget_reference_is_budget_for(priced):
    prices_, _, existing = columns_of(priced)
    row = budget_reference(prices_, existing, first_backend(priced))
    assert priced[row] is oracle.budget_reference(priced)


@settings(max_examples=300, deadline=None)
@given(priced=plan_rows(),
       budget_factor=st.floats(min_value=0.1, max_value=3.0),
       shape=st.sampled_from(["step", "convex", "concave"]),
       selection=st.sampled_from(list(PlanSelection)))
def test_negotiated_rows_match_the_scalar_pipeline(priced, budget_factor,
                                                   shape, selection):
    """Offer set, budget reference and negotiation together, as the
    scalar pipeline ran them and as the engine's rows run them now."""
    prices_, times_, existing = columns_of(priced)
    assume(any(existing))  # negotiation refuses a query with nothing to run
    user = UserModel(budget_factor=budget_factor, shape=shape)
    selected = skyline_indices(times_, prices_)

    reference = oracle.budget_reference(priced)
    expected = negotiate(
        user.budget_for(QUERY, reference.price, reference.response_time_s),
        oracle.ensure_existing_plan(priced,
                                    [priced[row] for row in selected]),
        selection)

    row = budget_reference(prices_, existing, first_backend(priced))
    result = negotiate(
        user.budget_for(QUERY, prices_[row], times_[row]),
        [_RowCandidate(prices_[row], times_[row], existing[row], row)
         for row in offer_rows(selected, prices_, existing)],
        selection)

    assert result.case is expected.case
    assert priced[result.chosen.row] is expected.chosen
    assert result.charge.hex() == expected.charge.hex()
    assert result.profit.hex() == expected.profit.hex()
    assert ([(priced[candidate.row], regret.hex())
             for candidate, regret in result.regrets]
            == [(plan, regret.hex()) for plan, regret in expected.regrets])


class _Entry:
    size_bytes = 3 * 1024 ** 3


class StubPartitionCache:
    """Answers what the engine asks a cache while distributing regret."""

    version = 0

    def __init__(self, owned, remote):
        self._owned = owned
        self._remote = remote
        self.remote_version = 1 if remote else 0

    def owns(self, key):
        return key in self._owned

    def remote_entry(self, key):
        return _Entry() if key in self._remote else None

    def attach_trace(self, recorder):
        pass


class TenantBooks:
    """Records the tenant mirror's calls."""

    def __init__(self):
        self.calls = []

    def record_regret(self, tenant_id, missing, regret, divide):
        self.calls.append((tenant_id, tuple(missing), regret.hex(), divide))


def tracker_state(tracker):
    return ([(key, value.hex()) for key, value in tracker.items()],
            tracker.tracked_keys())


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(missing_sets, regrets), max_size=6),
       divide=st.booleans(), owned=key_sets, remote=key_sets,
       everything_owned=st.booleans())
def test_one_applier_distributes_regret_as_both_engines_did(
        pairs, divide, owned, remote, everything_owned):
    if everything_owned:
        owned = set(KEYS)
    capacity = 4  # small enough that the LRU pool evicts
    cache = StubPartitionCache(owned, remote)
    books = TenantBooks()
    engine = EconomyEngine(
        None, None, cache=cache, tenants=books,
        config=EconomyConfig(divide_regret=divide,
                             regret_pool_capacity=capacity))
    engine._distribute_regret(QUERY, pairs)

    tracker, oracle_books, foreign = RegretTracker(capacity), TenantBooks(), {}
    oracle.distribute_regret_partitioned(
        tracker, oracle_books, QUERY.tenant_id, pairs, divide,
        owns=owned.__contains__, remote=remote.__contains__,
        foreign_regret=foreign)
    assert tracker_state(engine.regret_tracker) == tracker_state(tracker)
    assert books.calls == oracle_books.calls
    assert ([(key, structure, amount.hex()) for key, (structure, amount)
             in engine._foreign_regret.items()]
            == [(key, structure, amount.hex()) for key, (structure, amount)
                in foreign.items()])

    if everything_owned and not remote:
        plain, plain_books = RegretTracker(capacity), TenantBooks()
        oracle.distribute_regret_plain(plain, plain_books, QUERY.tenant_id,
                                       pairs, divide)
        assert tracker_state(engine.regret_tracker) == tracker_state(plain)
        assert books.calls == plain_books.calls
        assert not foreign


@settings(max_examples=300, deadline=None)
@given(missing=missing_sets, regret=regrets, divide=st.booleans(),
       owned=key_sets, remote=key_sets)
def test_attribution_splits_what_it_keeps(missing, regret, divide, owned,
                                          remote):
    shares = attribute_regret(missing, regret, divide, owned.__contains__,
                              dict.fromkeys(remote, "advertised").get)
    kept = tuple(s for s in missing if s.key not in remote)
    if not kept:
        assert shares is None
        return
    assert shares.missing == kept
    assert set(shares.owned) | set(shares.foreign) == set(kept)
    assert all(s.key in owned for s in shares.owned)
    assert all(s.key not in owned for s in shares.foreign)


def _spot_costs(pieces, available, spot):
    """Each piece priced with the columns built before it readable."""
    readable, costs = set(available), []
    for piece in pieces:
        costs.append((piece, _catalog_cost(piece, readable) * spot))
        readable.add(piece.key)
    return costs


def _catalog_cost(structure, readable):
    """A build cost that depends on what the build may read, as an
    index's does (Eq. 14)."""
    if isinstance(structure, CachedIndex):
        return 1.0 + sum(0.5 for column in structure.required_columns()
                         if column.key not in readable)
    return 1.0 / 3.0


@settings(max_examples=300, deadline=None)
@given(structure=st.sampled_from(STRUCTURES), available=key_sets,
       owned=key_sets, everything_owned=st.booleans(),
       spot=st.sampled_from([1.0, 0.5, 3.0]))
def test_build_pieces_is_the_build_plan(structure, available, owned,
                                        everything_owned, spot):
    available = {key for key in available if key.startswith("column:")}
    owns = (lambda key: True) if everything_owned else owned.__contains__
    expected = oracle.build_plan(structure, available, owns, _catalog_cost,
                                 spot)
    pieces = build_pieces(structure, available, owns)
    assert [(piece, cost.hex()) for piece, cost
            in _spot_costs(pieces, available, spot)] == [
        (piece, cost.hex()) for piece, cost in expected]


@st.composite
def remote_plans(draw):
    structures = draw(missing_sets)
    built = draw(st.sets(st.sampled_from(structures))) if structures else ()
    new = tuple(s for s in structures if s not in built)
    charges = {s.key: draw(prices) for s in structures}
    price, time_s = draw(prices), draw(times)
    return PricedPlan(
        plan=QueryPlan(query=QUERY, kind=PlanKind.CACHE_COLUMN_SCAN,
                       execution=estimate(price, time_s),
                       structures=structures),
        execution_dollars=price,
        amortized_dollars=sum(charges.values()),
        maintenance_dollars=draw(prices), new_structures=new,
        amortized_by_structure=charges)


def plan_bits(priced):
    execution = priced.plan.execution
    return (priced.plan.structures, priced.new_structures,
            [(key, charge.hex()) for key, charge
             in priced.amortized_by_structure.items()],
            [value.hex() for value in (
                execution.network_bytes, execution.network_dollars,
                execution.response_time_s, priced.execution_dollars,
                float(priced.amortized_dollars), priced.maintenance_dollars,
                priced.price)])


@settings(max_examples=300, deadline=None)
@given(priced=remote_plans(), remote=st.dictionaries(
    st.sampled_from(KEYS), surcharges))
def test_remote_priced_is_apply_remote(priced, remote):
    expected = oracle.apply_remote(priced, remote.get)
    repriced = remote_priced(priced, remote.get)
    assert repriced == expected
    assert plan_bits(repriced) == plan_bits(expected)
    if expected is priced:
        assert repriced is priced


def test_the_partitioned_engine_overrides_no_engine_step():
    """One applier: the partitioned engine only adds its barrier-facing
    state and methods, and defines nothing the base engine defines but
    its constructor."""
    shadowed = {name for name in vars(PartitionedEconomyEngine)
                if hasattr(EconomyEngine, name)}
    assert shadowed - {"__init__", "__doc__", "__module__"} == set()
