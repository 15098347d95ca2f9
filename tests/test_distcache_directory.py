"""Tests for the cross-shard directory and its consistency invariants."""

import pickle

import pytest

from repro.distcache import (
    CrossShardDirectory,
    DirectoryDelta,
    DirectoryEntry,
    StructurePartitioner,
    verify_delta_fold,
)
from repro.errors import DistCacheError


def _owned_key(partitioner, partition, base="column:t.c"):
    """A key whose hash-owner is ``partition`` (search by suffix)."""
    for i in range(10_000):
        key = f"{base}{i}"
        if partitioner.partition_of(key) == partition:
            return key
    raise AssertionError("no key found for partition")


@pytest.fixture
def partitioner():
    return StructurePartitioner(partition_count=3)


class TestPublication:
    def test_empty_directory(self):
        directory = CrossShardDirectory.empty()
        assert len(directory) == 0
        assert directory.version == 0
        assert not directory.contains("anything")

    def test_publish_and_lookup(self, partitioner):
        key = _owned_key(partitioner, 1)
        directory = CrossShardDirectory.publish(
            {1: [(key, 2048)]}, partitioner, version=3)
        assert directory.contains(key)
        assert directory.owner_of(key) == 1
        assert directory.entry(key).size_bytes == 2048
        assert directory.version == 3

    def test_unknown_key_raises(self, partitioner):
        directory = CrossShardDirectory.publish({}, partitioner)
        with pytest.raises(DistCacheError):
            directory.entry("column:t.missing")

    def test_wrong_owner_rejected(self, partitioner):
        key = _owned_key(partitioner, 1)
        holder = 2 if partitioner.partition_of(key) != 2 else 0
        with pytest.raises(DistCacheError, match="owned by"):
            CrossShardDirectory.publish({holder: [(key, 10)]}, partitioner)

    def test_dual_ownership_rejected(self):
        partitioner = StructurePartitioner(partition_count=1)
        key = "column:t.c0"
        with pytest.raises(DistCacheError):
            CrossShardDirectory.publish(
                {0: [(key, 10), (key, 10)]}, partitioner)


class TestRemoteView:
    def test_owner_sees_nothing_remote(self, partitioner):
        key = _owned_key(partitioner, 0)
        directory = CrossShardDirectory.publish({0: [(key, 10)]}, partitioner)
        assert directory.remote_entry(key, viewer=0) is None

    def test_other_partitions_see_remote_entry(self, partitioner):
        key = _owned_key(partitioner, 0)
        directory = CrossShardDirectory.publish({0: [(key, 10)]}, partitioner)
        assert directory.remote_entry(key, viewer=1).partition == 0
        assert directory.remote_entry(key, viewer=2).partition == 0

    def test_entries_of_partition(self, partitioner):
        key0 = _owned_key(partitioner, 0)
        key1 = _owned_key(partitioner, 1)
        directory = CrossShardDirectory.publish(
            {0: [(key0, 10)], 1: [(key1, 20)]}, partitioner)
        assert {key: entry.partition for key, entry
                in directory.entries_by_key().items()} == {key0: 0, key1: 1}


class TestBackedByAudit:
    def test_live_owner_passes(self, partitioner):
        key = _owned_key(partitioner, 2)
        directory = CrossShardDirectory.publish({2: [(key, 10)]}, partitioner)
        directory.verify_backed_by({2: [key]})

    def test_stale_entry_detected(self, partitioner):
        key = _owned_key(partitioner, 2)
        directory = CrossShardDirectory.publish({2: [(key, 10)]}, partitioner)
        with pytest.raises(DistCacheError, match="not backed"):
            directory.verify_backed_by({2: []})


class TestTransport:
    def test_picklable(self, partitioner):
        key = _owned_key(partitioner, 1)
        directory = CrossShardDirectory.publish(
            {1: [(key, 42)]}, partitioner, version=7)
        clone = pickle.loads(pickle.dumps(directory))
        assert clone.version == 7
        assert clone.entry(key).size_bytes == 42


class TestDirectoryDelta:
    """Delta publication: ``prev + delta == full`` at every barrier."""

    def test_delta_from_empty_is_all_adds(self, partitioner):
        key = _owned_key(partitioner, 1)
        full = CrossShardDirectory.publish(
            {1: [(key, 42)]}, partitioner, version=1)
        delta = DirectoryDelta.between(CrossShardDirectory.empty(), full)
        assert [entry.key for entry in delta.adds] == [key]
        assert delta.removes == () and delta.moves == ()
        verify_delta_fold(CrossShardDirectory.empty(), delta, full)

    def test_adds_removes_and_moves_are_classified(self, partitioner):
        kept = _owned_key(partitioner, 0)
        dropped = _owned_key(partitioner, 1)
        grown = _owned_key(partitioner, 2)
        added = _owned_key(partitioner, 0, base="index:t.i")
        prev = CrossShardDirectory.publish(
            {0: [(kept, 10)], 1: [(dropped, 20)], 2: [(grown, 30)]},
            partitioner, version=1)
        cur = CrossShardDirectory.publish(
            {0: [(kept, 10), (added, 5)], 2: [(grown, 31)]},
            partitioner, version=2)
        delta = DirectoryDelta.between(prev, cur)
        assert [entry.key for entry in delta.adds] == [added]
        assert delta.removes == (dropped,)
        assert [entry.key for entry in delta.moves] == [grown]
        assert delta.change_count == 3 and not delta.is_empty
        verify_delta_fold(prev, delta, cur)

    def test_ownership_handoff_surfaces_as_a_move(self):
        partitioner = StructurePartitioner(2)
        key = _owned_key(partitioner, 0)
        prev = CrossShardDirectory.publish(
            {0: [(key, 10)]}, partitioner, version=1)
        moved = partitioner.with_overrides({key: 1})
        cur = CrossShardDirectory.publish(
            {1: [(key, 10)]}, moved, version=2)
        delta = DirectoryDelta.between(prev, cur)
        assert [entry.key for entry in delta.moves] == [key]
        assert delta.moves[0].partition == 1
        verify_delta_fold(prev, delta, cur)

    def test_fold_divergence_detected(self, partitioner):
        key = _owned_key(partitioner, 1)
        full = CrossShardDirectory.publish(
            {1: [(key, 42)]}, partitioner, version=1)
        lossy = DirectoryDelta(base_version=0, version=1,
                               adds=(), removes=(), moves=())
        with pytest.raises(DistCacheError, match="fold diverged"):
            verify_delta_fold(CrossShardDirectory.empty(), lossy, full)

    def test_apply_delta_version_and_key_guards(self, partitioner):
        key = _owned_key(partitioner, 1)
        prev = CrossShardDirectory.publish(
            {1: [(key, 42)]}, partitioner, version=1)
        entry = DirectoryEntry(key=key, partition=1, size_bytes=42)
        with pytest.raises(DistCacheError, match="version"):
            prev.apply_delta(DirectoryDelta(
                base_version=5, version=6, adds=(), removes=(), moves=()))
        with pytest.raises(DistCacheError, match="already advertised"):
            prev.apply_delta(DirectoryDelta(
                base_version=1, version=2, adds=(entry,), removes=(),
                moves=()))
        with pytest.raises(DistCacheError, match="not advertised"):
            prev.apply_delta(DirectoryDelta(
                base_version=1, version=2, adds=(),
                removes=("column:t.ghost",), moves=()))

    def test_delta_must_advance_version_by_one(self):
        with pytest.raises(DistCacheError, match="version"):
            DirectoryDelta(base_version=1, version=3,
                           adds=(), removes=(), moves=())

    def test_delta_rejects_double_touched_keys(self, partitioner):
        key = _owned_key(partitioner, 0)
        entry = DirectoryEntry(key=key, partition=0, size_bytes=1)
        with pytest.raises(DistCacheError, match="at most once"):
            DirectoryDelta(base_version=0, version=1, adds=(entry,),
                           removes=(key,), moves=())

    def test_empty_delta_is_cheaper_than_any_snapshot(self, partitioner):
        key = _owned_key(partitioner, 1)
        full = CrossShardDirectory.publish(
            {1: [(key, 42)]}, partitioner, version=1)
        delta = DirectoryDelta.between(
            full, CrossShardDirectory(full.entries_by_key(), version=2))
        assert delta.is_empty
        assert delta.wire_bytes < full.wire_bytes
