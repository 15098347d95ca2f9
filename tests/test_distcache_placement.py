"""Tests for demand-driven placement: policy, overrides, handoff runs.

The load-bearing properties:

* **Determinism** — the handoff set is a function of the *multiset* of
  recorded bids (hypothesis: any permutation of the epoch's records
  yields the same decisions), ties break stably, and hysteresis keeps
  equal or sub-threshold challengers out.
* **Override table** — consulted before the hash fallback, canonical
  (no redundant entries, key-sorted, equal mappings compare equal), and
  picklable so it rides to worker processes.
* **End-to-end handoffs** — adaptive runs move hot structures, keep
  every conservation audit bitwise exact, and report the handoffs; an
  unreachable threshold degenerates to the hash run.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distcache import (
    DistCacheRunner,
    HandoffDecision,
    PlacementPolicy,
    StructurePartitioner,
)
from repro.errors import DistCacheError
from repro.experiments.tenants import TenantExperimentConfig
from repro.workload.population import GenerativeProfileSource

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.distcache.PartitionImbalanceWarning")

CONFIG = TenantExperimentConfig(
    scheme="econ-cheap", tenant_count=16, query_count=60,
    interarrival_s=1.0, seed=1, settlement_period_s=15.0,
)


class TestPlacementPolicy:
    def test_highest_bidder_wins(self):
        policy = PlacementPolicy(partition_count=3)
        policy.record("column:a", 0, 1.0)
        policy.record("column:a", 2, 5.0)
        decisions = policy.propose({"column:a": 0})
        assert decisions == [HandoffDecision(
            key="column:a", from_partition=0, to_partition=2,
            challenger_benefit=5.0, incumbent_benefit=1.0)]
        assert decisions[0].margin == 4.0

    def test_incumbent_keeps_on_tie(self):
        policy = PlacementPolicy(partition_count=2)
        policy.record("column:a", 0, 3.0)
        policy.record("column:a", 1, 3.0)
        assert policy.propose({"column:a": 0}) == []

    def test_tie_between_challengers_breaks_to_lowest_index(self):
        policy = PlacementPolicy(partition_count=4)
        policy.record("column:a", 3, 2.0)
        policy.record("column:a", 1, 2.0)
        (decision,) = policy.propose({"column:a": 0})
        assert decision.to_partition == 1

    def test_hysteresis_threshold_blocks_small_margins(self):
        policy = PlacementPolicy(partition_count=2, handoff_threshold=1.0)
        policy.record("column:a", 0, 1.0)
        policy.record("column:a", 1, 2.0)   # margin 1.0 == threshold: blocked
        assert policy.propose({"column:a": 0}) == []
        policy.record("column:a", 0, 1.0)
        policy.record("column:a", 1, 2.0 + 1e-9)
        (decision,) = policy.propose({"column:a": 0})
        assert decision.to_partition == 1

    def test_propose_drains_the_epoch(self):
        policy = PlacementPolicy(partition_count=2)
        policy.record("column:a", 1, 2.0)
        assert len(policy.propose({"column:a": 0})) == 1
        assert policy.pending_keys() == []
        assert policy.propose({"column:a": 0}) == []
        assert policy.epochs_observed == 2

    def test_keys_without_owner_entry_are_skipped(self):
        policy = PlacementPolicy(partition_count=2)
        policy.record("column:a", 1, 2.0)
        assert policy.propose({}) == []

    def test_decisions_come_out_key_sorted(self):
        policy = PlacementPolicy(partition_count=2)
        for key in ("column:z", "column:a", "column:m"):
            policy.record(key, 1, 2.0)
        decisions = policy.propose(
            {"column:z": 0, "column:a": 0, "column:m": 0})
        assert [d.key for d in decisions] == [
            "column:a", "column:m", "column:z"]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(DistCacheError):
            PlacementPolicy(0)
        with pytest.raises(DistCacheError):
            PlacementPolicy(2, handoff_threshold=-0.1)
        with pytest.raises(DistCacheError):
            # NaN would make every hysteresis comparison False, silently
            # freezing placement; it must be rejected up front.
            PlacementPolicy(2, handoff_threshold=float("nan"))
        policy = PlacementPolicy(2)
        with pytest.raises(DistCacheError):
            policy.record("", 0, 1.0)
        with pytest.raises(DistCacheError):
            policy.record("column:a", 2, 1.0)
        with pytest.raises(DistCacheError):
            policy.record("column:a", 0, -1.0)


@st.composite
def _bid_records_and_permutation(draw):
    records = draw(st.lists(
        st.tuples(
            st.sampled_from(["column:a", "column:b", "index:i", "cpu:0"]),
            st.integers(min_value=0, max_value=3),
            st.floats(min_value=0.0, max_value=10.0,
                      allow_nan=False, allow_infinity=False),
        ),
        min_size=0, max_size=40,
    ))
    permutation = draw(st.permutations(list(range(len(records)))))
    return records, permutation


class TestPermutationInvariance:
    @settings(max_examples=120, deadline=None)
    @given(data=_bid_records_and_permutation(),
           threshold=st.floats(min_value=0.0, max_value=5.0,
                               allow_nan=False, allow_infinity=False))
    def test_any_epoch_order_yields_the_same_handoff_set(
            self, data, threshold):
        records, permutation = data
        owners = {"column:a": 0, "column:b": 1, "index:i": 2, "cpu:0": 3}
        ordered = PlacementPolicy(4, handoff_threshold=threshold)
        shuffled = PlacementPolicy(4, handoff_threshold=threshold)
        for key, partition, benefit in records:
            ordered.record(key, partition, benefit)
        for index in permutation:
            key, partition, benefit = records[index]
            shuffled.record(key, partition, benefit)
        # Bitwise-equal decisions, including the fsum'd benefit totals.
        assert ordered.propose(owners) == shuffled.propose(owners)


class TestOwnershipOverrides:
    def test_override_consulted_before_hash(self):
        base = StructurePartitioner(4)
        key = "column:lineitem.l_quantity"
        target = (base.partition_of(key) + 1) % 4
        moved = base.with_overrides({key: target})
        assert moved.partition_of(key) == target
        assert moved.hash_owner_of(key) == base.partition_of(key)
        assert moved.overrides == ((key, target),)
        assert moved.owns(target, key)
        assert not moved.owns(base.partition_of(key), key)

    def test_handback_removes_the_override(self):
        base = StructurePartitioner(2)
        key = "column:a"
        moved = base.with_overrides({key: 1 - base.partition_of(key)})
        assert len(moved.overrides) == 1
        restored = moved.with_overrides({key: base.partition_of(key)})
        assert restored.overrides == ()
        assert restored == base

    def test_equal_mappings_compare_and_hash_equal(self):
        key_a, key_b = "column:a", "column:b"
        base = StructurePartitioner(4)
        one = base.with_overrides(
            {key_a: (base.partition_of(key_a) + 1) % 4}).with_overrides(
            {key_b: (base.partition_of(key_b) + 2) % 4})
        other = base.with_overrides({
            key_b: (base.partition_of(key_b) + 2) % 4,
            key_a: (base.partition_of(key_a) + 1) % 4,
        })
        assert one == other
        assert hash(one) == hash(other)

    def test_pickle_round_trip(self):
        partitioner = StructurePartitioner(4).with_overrides(
            {"column:a": 2, "column:b": 1})
        clone = pickle.loads(pickle.dumps(partitioner))
        assert clone == partitioner
        assert clone.partition_of("column:a") == \
            partitioner.partition_of("column:a")

    def test_invalid_overrides_rejected(self):
        with pytest.raises(DistCacheError):
            StructurePartitioner(2, overrides=(("column:a", 2),))
        with pytest.raises(DistCacheError):
            StructurePartitioner(2, overrides=(("", 0),))
        with pytest.raises(DistCacheError):
            StructurePartitioner(
                2, overrides=(("column:a", 0), ("column:a", 1)))


class TestAdaptiveRuns:
    @pytest.fixture(scope="class")
    def hash_report(self):
        return DistCacheRunner(2, compare_baseline=False).run_cell(CONFIG)

    @pytest.fixture(scope="class")
    def adaptive_report(self):
        return DistCacheRunner(
            2, compare_baseline=False, placement="adaptive").run_cell(CONFIG)

    def test_handoffs_happen_and_are_recorded(self, adaptive_report):
        assert adaptive_report.placement == "adaptive"
        assert adaptive_report.handoff_count > 0
        for record in adaptive_report.handoffs:
            assert record.from_partition != record.to_partition
            assert record.margin > 0
        by_epoch = {point.epoch: point.handoffs_applied
                    for point in adaptive_report.checkpoints}
        for record in adaptive_report.handoffs:
            assert by_epoch[record.epoch] > 0

    def test_adaptive_cuts_remote_surcharge(self, hash_report,
                                            adaptive_report):
        assert (adaptive_report.remote_dollars_paid
                < hash_report.remote_dollars_paid)

    def test_conservation_still_bitwise_exact(self, adaptive_report):
        for point in adaptive_report.checkpoints:
            assert point.query_payments == point.outcome_charges

    def test_no_query_lost(self, adaptive_report):
        assert sum(stats.queries_served
                   for stats in adaptive_report.partitions) \
            == CONFIG.query_count

    def test_every_barrier_publishes_a_folded_delta(self, adaptive_report):
        """Each barrier published once, its delta folded onto the last
        snapshot (the runner raises otherwise), for fewer bytes than
        republishing the whole directory."""
        assert (len(adaptive_report.publications)
                == adaptive_report.barriers_verified > 0)
        assert (adaptive_report.directory_bytes_published
                <= adaptive_report.directory_bytes_full)

    def test_worker_pool_never_changes_results(self, adaptive_report):
        parallel = DistCacheRunner(
            2, max_workers=2, compare_baseline=False,
            placement="adaptive").run_cell(CONFIG)
        assert parallel.cell.summary == adaptive_report.cell.summary
        assert parallel.handoffs == adaptive_report.handoffs
        assert parallel.checkpoints == adaptive_report.checkpoints
        assert parallel.publications == adaptive_report.publications

    def test_unreachable_threshold_degenerates_to_hash(self, hash_report):
        frozen = DistCacheRunner(
            2, compare_baseline=False, placement="adaptive",
            handoff_threshold=1e18).run_cell(CONFIG)
        assert frozen.handoff_count == 0
        assert frozen.cell.summary == hash_report.cell.summary
        assert frozen.cell.tenants == hash_report.cell.tenants
        assert frozen.cell.wallet_credit == hash_report.cell.wallet_credit
        assert [point.subaccount_credit for point in frozen.checkpoints] \
            == [point.subaccount_credit for point in hash_report.checkpoints]

    def test_cells_do_not_leak_overrides(self):
        runner = DistCacheRunner(2, compare_baseline=False,
                                 placement="adaptive")
        first = runner.run_cell(CONFIG)
        second = runner.run_cell(CONFIG)
        assert first.cell.summary == second.cell.summary
        assert first.handoffs == second.handoffs

    def test_invalid_modes_rejected(self):
        with pytest.raises(DistCacheError, match="placement"):
            DistCacheRunner(2, placement="sticky")
        with pytest.raises(DistCacheError, match="handoff_threshold"):
            DistCacheRunner(2, handoff_threshold=-0.5)
        with pytest.raises(DistCacheError, match="handoff_threshold"):
            DistCacheRunner(2, handoff_threshold=float("nan"))


class TestHashModeRegression:
    """``--placement hash`` must stay byte-identical to the PR 4 path."""

    def test_hash_report_has_no_placement_artifacts(self):
        report = DistCacheRunner(2, compare_baseline=False).run_cell(CONFIG)
        assert report.placement == "hash"
        assert report.handoffs == ()
        assert all(point.handoffs_applied == 0
                   for point in report.checkpoints)

    def test_hash_engines_never_tally_bids(self):
        """Hash runs must not pay for (or pickle) the placement tally."""
        runner = DistCacheRunner(2, compare_baseline=False)
        source = GenerativeProfileSource(spec=CONFIG.population_spec())
        schemes = runner._build_schemes(CONFIG, source)
        for scheme in schemes:
            engine = scheme.engine
            assert engine._record_bids is False
            engine._record_placement_bid("column:x", 1.0)  # sanity: works
            assert engine.drain_placement_bids() == (("column:x", 1.0),)

    def test_hash_mode_summary_is_pinned(self):
        """Regression pin: the exact hash-mode trajectory of PR 4.

        The partitioned semantics are deterministic, so these observables
        are frozen; any drift means the placement machinery leaked into
        the hash path.
        """
        report = DistCacheRunner(2, compare_baseline=False).run_cell(CONFIG)
        assert report.remote_hit_count == 14
        assert [stats.queries_served for stats in report.partitions] \
            == [17, 43]
        assert report.directory_size == sum(
            stats.local_structures for stats in report.partitions)


#: The placement figures' cell: template-affinity routing concentrates
#: each template's queries on one partition, so hash placement pays for
#: the structures it does not own remotely again and again.
PIN_CONFIG = TenantExperimentConfig(
    scheme="econ-cheap", tenant_count=24, query_count=160,
    interarrival_s=1.0, seed=0, settlement_period_s=20.0,
)


class TestPlacementPins:
    """Exact pins of the placement figures (the run is seeded, so any
    drift is a change of behaviour, not noise), plus the two claims of
    ``docs/distcache.md`` they support."""

    @staticmethod
    def _run(placement):
        return DistCacheRunner(
            2, compare_baseline=False, placement=placement,
            handoff_threshold=0.0).run_cell(PIN_CONFIG)

    @pytest.fixture(scope="class")
    def hash_pin(self):
        return self._run("hash")

    @pytest.fixture(scope="class")
    def adaptive_pin(self):
        return self._run("adaptive")

    def test_hash_figures(self, hash_pin):
        assert hash_pin.remote_hit_count == 74
        assert hash_pin.remote_dollars_paid == float.fromhex(
            "0x1.e25fd13fcdecap+0")          # 1.8842745571873132
        assert hash_pin.handoff_count == 0
        assert hash_pin.barriers_verified == 8
        assert hash_pin.directory_bytes_published == 1_418
        assert hash_pin.directory_bytes_full == 3_731

    def test_adaptive_figures(self, adaptive_pin):
        assert adaptive_pin.remote_hit_count == 18
        assert adaptive_pin.remote_dollars_paid == float.fromhex(
            "0x1.c58697df6b509p-2")          # 0.44289624501364294
        assert adaptive_pin.handoff_count == 7
        assert adaptive_pin.barriers_verified == 8
        assert adaptive_pin.directory_bytes_published == 1_695
        assert adaptive_pin.directory_bytes_full == 3_731

    def test_adaptive_cuts_surcharge_and_remote_hits(self, hash_pin,
                                                     adaptive_pin):
        assert (adaptive_pin.remote_dollars_paid
                < hash_pin.remote_dollars_paid)
        assert adaptive_pin.remote_hit_count < hash_pin.remote_hit_count

    def test_deltas_ship_fewer_bytes_than_full_republication(
            self, hash_pin, adaptive_pin):
        for report in (hash_pin, adaptive_pin):
            assert (report.directory_bytes_published
                    < report.directory_bytes_full)
