"""The cross-shard directory: who holds which structure, published at barriers.

Every partition plans queries against its **local** cache plus this
directory — an immutable snapshot of what the *other* partitions held at
the last settlement barrier. A directory hit is not a local hit: the
structure can be used without building it, but each access pays the
remote surcharge of :class:`~repro.economy.decisions.RemoteAccessModel`.

The directory is the explicitly weaker half of the partitioned-mode
semantics contract (``docs/distcache.md``):

* **Epoch consistency** — a structure built mid-epoch becomes visible to
  other partitions only at the next barrier; one evicted mid-epoch may
  still be advertised until then. Within an epoch every partition prices
  against the same frozen snapshot, which is what keeps the run
  deterministic regardless of worker scheduling.
* **Ownership consistency** — these invariants are *not* relaxed and are
  re-verified at every publication: a key appears in at most one
  partition's snapshot, the holder is the key's owner under the
  :class:`~repro.distcache.partition.StructurePartitioner` (override
  table included — an adaptive handoff changes who the *rightful* holder
  is, never how many there may be), and every entry is backed by a
  structure that was live at the snapshot instant.

Barriers do not have to republish the whole snapshot: a
:class:`DirectoryDelta` carries only the adds/removes/moves against the
previous epoch, and :meth:`CrossShardDirectory.apply_delta` folds it
forward with the invariant ``prev + delta == full snapshot`` verified by
the runner at every barrier (plus a periodic full-snapshot anchor for
audit). The wire cost of both forms is modeled deterministically so
reports and benchmarks can compare bytes published per barrier.

Example:
    >>> from repro.distcache.partition import StructurePartitioner
    >>> partitioner = StructurePartitioner(partition_count=2)
    >>> key = "column:lineitem.l_quantity"
    >>> owner = partitioner.partition_of(key)
    >>> directory = CrossShardDirectory.publish(
    ...     {owner: [(key, 1024)]}, partitioner)
    >>> directory.contains(key), directory.owner_of(key) == owner
    (True, True)
    >>> directory.remote_entry(key, viewer=owner) is None
    True
    >>> other = 1 - owner
    >>> directory.remote_entry(key, viewer=other).size_bytes
    1024
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.distcache.partition import StructurePartitioner
from repro.errors import DistCacheError


#: Modeled wire cost of one advertised entry beyond its key: the owning
#: partition (4 bytes) plus the structure's size (8 bytes).
_ENTRY_OVERHEAD_BYTES = 12
#: Modeled wire cost of one tombstone beyond its key: a record tag.
_REMOVE_OVERHEAD_BYTES = 4
#: Modeled fixed cost of any publication: versions plus record counts.
_HEADER_BYTES = 16


@dataclass(frozen=True)
class DirectoryEntry:
    """One advertised structure: its key, its owner, and its footprint."""

    key: str
    partition: int
    size_bytes: int

    def __post_init__(self) -> None:
        if not self.key:
            raise DistCacheError("directory entry key must not be empty")
        if self.size_bytes < 0:
            raise DistCacheError("directory entry size_bytes must be >= 0")

    @property
    def wire_bytes(self) -> int:
        """Modeled bytes this entry costs to publish."""
        return len(self.key.encode("utf-8")) + _ENTRY_OVERHEAD_BYTES


@dataclass(frozen=True)
class DirectoryDelta:
    """One barrier's directory changes against the previous epoch.

    The delta is what a barrier actually publishes when a full snapshot
    is not due: entries newly advertised (``adds``), keys no longer
    advertised (``removes``), and entries whose owner or size changed
    (``moves`` — an adaptive ownership handoff shows up here). Folding it
    onto the previous snapshot with
    :meth:`CrossShardDirectory.apply_delta` must reproduce the full
    snapshot exactly; the runner verifies that at every barrier.

    Attributes:
        base_version: the epoch this delta applies on top of.
        version: the epoch the fold produces.
        adds: entries absent at ``base_version`` (key-sorted).
        removes: keys advertised at ``base_version`` but no longer
            (sorted).
        moves: entries present at both epochs whose partition or size
            changed (key-sorted).

    Example:
        >>> delta = DirectoryDelta(base_version=1, version=2,
        ...     adds=(DirectoryEntry("column:a", 0, 64),), removes=(),
        ...     moves=())
        >>> delta.change_count, delta.is_empty
        (1, False)
    """

    base_version: int
    version: int
    adds: Tuple[DirectoryEntry, ...]
    removes: Tuple[str, ...]
    moves: Tuple[DirectoryEntry, ...]

    def __post_init__(self) -> None:
        if self.version != self.base_version + 1:
            raise DistCacheError(
                f"delta must advance the version by exactly 1, got "
                f"{self.base_version} -> {self.version}")
        touched = ([entry.key for entry in self.adds] + list(self.removes)
                   + [entry.key for entry in self.moves])
        if len(set(touched)) != len(touched):
            raise DistCacheError(
                "delta records must touch each key at most once")

    @property
    def change_count(self) -> int:
        """Total records carried (adds + removes + moves)."""
        return len(self.adds) + len(self.removes) + len(self.moves)

    @property
    def is_empty(self) -> bool:
        """Whether the directory did not change this epoch."""
        return self.change_count == 0

    @property
    def wire_bytes(self) -> int:
        """Modeled bytes publishing this delta costs."""
        total = _HEADER_BYTES
        for entry in self.adds:
            total += entry.wire_bytes
        for key in self.removes:
            total += len(key.encode("utf-8")) + _REMOVE_OVERHEAD_BYTES
        for entry in self.moves:
            total += entry.wire_bytes
        return total

    @classmethod
    def between(cls, previous: "CrossShardDirectory",
                current: "CrossShardDirectory") -> "DirectoryDelta":
        """The delta that folds ``previous`` forward onto ``current``.

        Deterministic: adds/removes/moves come out key-sorted, so two
        processes diffing the same snapshots publish identical deltas.
        """
        prev_entries = previous.entries_by_key()
        adds: List[DirectoryEntry] = []
        moves: List[DirectoryEntry] = []
        for key in sorted(current.entries_by_key()):
            entry = current.entry(key)
            before = prev_entries.get(key)
            if before is None:
                adds.append(entry)
            elif before != entry:
                moves.append(entry)
        removes = tuple(sorted(
            key for key in prev_entries if not current.contains(key)))
        return cls(
            base_version=previous.version,
            version=current.version,
            adds=tuple(adds),
            removes=removes,
            moves=tuple(moves),
        )


class CrossShardDirectory:
    """An immutable snapshot of every partition's live structures.

    Build one with :meth:`publish` (which verifies the ownership
    invariants) or start from :meth:`empty`; instances are picklable and
    safe to share read-only across partition workers.
    """

    def __init__(self, entries: Mapping[str, DirectoryEntry],
                 version: int = 0) -> None:
        self._entries: Dict[str, DirectoryEntry] = dict(entries)
        self._version = version

    # -- construction ----------------------------------------------------------

    @classmethod
    def empty(cls) -> "CrossShardDirectory":
        """The pre-first-barrier directory: nothing is advertised yet."""
        return cls({}, version=0)

    @classmethod
    def publish(cls, snapshots: Mapping[int, Sequence[Tuple[str, int]]],
                partitioner: StructurePartitioner,
                version: int = 1) -> "CrossShardDirectory":
        """Build a directory from per-partition ``(key, size_bytes)`` snapshots.

        Args:
            snapshots: for each partition index, the structures it holds
                *right now* — i.e. taken at the barrier, so every entry is
                backed by a live owner by construction, and re-verified here.
            partitioner: the structure → partition mapping of the run.
            version: monotonically increasing epoch number (for audits).

        Raises:
            DistCacheError: if a key is reported by two partitions, or by
                a partition that is not its hash-owner.
        """
        entries: Dict[str, DirectoryEntry] = {}
        for partition, keys in sorted(snapshots.items()):
            partitioner.validate_index(partition)
            for key, size_bytes in keys:
                if key in entries:
                    raise DistCacheError(
                        f"directory consistency violated: {key!r} reported "
                        f"by partitions {entries[key].partition} and "
                        f"{partition}"
                    )
                if not partitioner.owns(partition, key):
                    raise DistCacheError(
                        f"directory consistency violated: {key!r} held by "
                        f"partition {partition} but owned by "
                        f"{partitioner.partition_of(key)}"
                    )
                entries[key] = DirectoryEntry(
                    key=key, partition=partition, size_bytes=size_bytes,
                )
        return cls(entries, version=version)

    # -- lookups ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def version(self) -> int:
        """The barrier epoch this snapshot was published at (0 = empty)."""
        return self._version

    @property
    def entries(self) -> Tuple[DirectoryEntry, ...]:
        """Every advertised entry (stable order: publication order)."""
        return tuple(self._entries.values())

    def contains(self, key: str) -> bool:
        """Whether any partition advertised ``key`` at the last barrier."""
        return key in self._entries

    def entry(self, key: str) -> DirectoryEntry:
        """The entry for ``key`` or raise :class:`DistCacheError`."""
        try:
            return self._entries[key]
        except KeyError:
            raise DistCacheError(f"structure not in directory: {key!r}") from None

    def owner_of(self, key: str) -> int:
        """The partition advertising ``key`` (raises when not advertised)."""
        return self.entry(key).partition

    def remote_entry(self, key: str, viewer: int) -> Optional[DirectoryEntry]:
        """The entry for ``key`` if it lives on a partition other than
        ``viewer``; ``None`` when unadvertised or held by the viewer itself."""
        entry = self._entries.get(key)
        if entry is None or entry.partition == viewer:
            return None
        return entry

    def entries_by_key(self) -> Dict[str, DirectoryEntry]:
        """The advertised entries as a fresh ``key -> entry`` mapping."""
        return dict(self._entries)

    @property
    def wire_bytes(self) -> int:
        """Modeled bytes publishing this snapshot in full costs."""
        return _HEADER_BYTES + sum(entry.wire_bytes
                                   for entry in self._entries.values())

    # -- delta folding ---------------------------------------------------------

    def apply_delta(self, delta: DirectoryDelta) -> "CrossShardDirectory":
        """Fold a barrier's delta onto this snapshot.

        The result advertises exactly what the delta's publisher held:
        ``prev + delta == full snapshot`` is the invariant the runner
        re-verifies at every barrier (:func:`verify_delta_fold`).

        Raises:
            DistCacheError: if the delta was cut against a different
                version, adds a key already advertised, or removes/moves
                a key that is not.
        """
        if delta.base_version != self._version:
            raise DistCacheError(
                f"delta applies to version {delta.base_version}, but this "
                f"snapshot is version {self._version}")
        entries = dict(self._entries)
        for key in delta.removes:
            if entries.pop(key, None) is None:
                raise DistCacheError(
                    f"delta removes {key!r}, which is not advertised")
        for entry in delta.moves:
            if entry.key not in entries:
                raise DistCacheError(
                    f"delta moves {entry.key!r}, which is not advertised")
            entries[entry.key] = entry
        for entry in delta.adds:
            if entry.key in entries:
                raise DistCacheError(
                    f"delta adds {entry.key!r}, which is already advertised")
            entries[entry.key] = entry
        return CrossShardDirectory(entries, version=delta.version)

    def same_entries(self, other: "CrossShardDirectory") -> bool:
        """Whether two snapshots advertise identical entries (any order)."""
        return self._entries == other._entries

    def verify_backed_by(self, live_keys_by_partition:
                         Mapping[int, Sequence[str]]) -> None:
        """Audit that every entry's owner still holds the structure.

        Called with live snapshots at the barrier the directory was
        published from; a stale entry means the publication protocol was
        violated (entries are rebuilt from live state each barrier, so
        this should be impossible — the audit keeps it that way).

        Raises:
            DistCacheError: on the first entry without a live owner.
        """
        live = {partition: frozenset(keys)
                for partition, keys in live_keys_by_partition.items()}
        for key, entry in self._entries.items():
            if key not in live.get(entry.partition, frozenset()):
                raise DistCacheError(
                    f"directory entry {key!r} is not backed by a live "
                    f"structure on its owner partition {entry.partition}"
                )


def verify_delta_fold(previous: CrossShardDirectory, delta: DirectoryDelta,
                      full: CrossShardDirectory) -> None:
    """Audit one barrier's delta publication: ``prev + delta == full``.

    Folds the delta onto the previous snapshot and demands the result
    advertise exactly the full snapshot's entries at its version. Run by
    the runner at **every** barrier (not only anchors), so a divergent
    delta can never propagate silently.

    Raises:
        DistCacheError: when the fold and the full snapshot disagree.

    Example:
        >>> prev = CrossShardDirectory.empty()
        >>> from repro.distcache.partition import StructurePartitioner
        >>> partitioner = StructurePartitioner(partition_count=1)
        >>> full = CrossShardDirectory.publish({0: [("column:a", 64)]},
        ...                                    partitioner, version=1)
        >>> delta = DirectoryDelta.between(prev, full)
        >>> verify_delta_fold(prev, delta, full)  # silently passes
        >>> bad = DirectoryDelta(base_version=0, version=1, adds=(),
        ...                      removes=(), moves=())
        >>> verify_delta_fold(prev, bad, full)
        Traceback (most recent call last):
            ...
        repro.errors.DistCacheError: directory delta fold diverged at version 1: folding the delta onto version 0 does not reproduce the full snapshot
    """
    folded = previous.apply_delta(delta)
    if folded.version != full.version or not folded.same_entries(full):
        raise DistCacheError(
            f"directory delta fold diverged at version {full.version}: "
            f"folding the delta onto version {previous.version} does not "
            f"reproduce the full snapshot"
        )
