"""The per-server datastore.

A :class:`DataStore` holds the versioned records of one shard and exposes the
operations the execution and commitment layers need:

* timestamped reads (returning value + ``rts``/``wts``, Section 4.2.1);
* atomic application of a committed transaction's buffered writes, which
  installs new versions and advances the read/write timestamps of every item
  the transaction accessed;
* Merkle-tree maintenance: the datastore keeps an incremental
  :class:`~repro.crypto.merkle.MerkleTree` over its items so TFCommit's vote
  phase can produce an up-to-date root in memory without touching disk state
  (Section 4.3.1), and audits can request Verification Objects at any version
  (Section 4.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.common.encoding import canonical_encode
from repro.common.errors import StorageError
from repro.common.timestamps import Timestamp
from repro.common.types import ItemId, Value
from repro.common.wire import ANY, BOOL, STR, TIMESTAMP, wire_form
from repro.crypto.merkle import MerkleTree, VerificationObject
from repro.storage.record import (
    RecordVersion,
    VersionedRecord,
    initial_version,
    shared_version,
)


@wire_form(("item_id", STR), ("value", ANY), ("rts", TIMESTAMP), ("wts", TIMESTAMP))
@dataclass(frozen=True)
class ReadResult:
    """Result of a timestamped read: the value plus its current timestamps."""

    item_id: ItemId
    value: Value
    rts: Timestamp
    wts: Timestamp


class DataStore:
    """Versioned key-value store for a single shard.

    Parameters
    ----------
    items:
        Initial ``item_id -> value`` contents; all initial versions carry the
        genesis stamp, and an item that starts at the initial value holds the
        one :data:`~repro.storage.record.GENESIS_VERSION`.
    multi_versioned:
        Keep the full version chain (True, the default used in the paper's
        audit discussion) or only the latest version.
    """

    def __init__(self, items: Mapping[ItemId, Value], multi_versioned: bool = True) -> None:
        self._multi_versioned = multi_versioned
        self._records: Dict[ItemId, VersionedRecord] = {
            item_id: VersionedRecord(item_id, [initial_version(value)])
            for item_id, value in items.items()
        }
        self._merkle = MerkleTree.from_items(items)
        self._mht_node_updates = 0
        #: Historical trees derived for audit VO requests, keyed by the audit
        #: timestamp; invalidated whenever the stored state changes.
        self._historical_trees: Dict[Tuple, MerkleTree] = {}

    # -- basic queries ------------------------------------------------------

    def __contains__(self, item_id: ItemId) -> bool:
        return item_id in self._records

    def __len__(self) -> int:
        return len(self._records)

    @property
    def multi_versioned(self) -> bool:
        return self._multi_versioned

    def item_ids(self) -> List[ItemId]:
        return list(self._records)

    def record(self, item_id: ItemId) -> VersionedRecord:
        """Return the full versioned record of ``item_id``."""
        try:
            return self._records[item_id]
        except KeyError:
            raise StorageError(f"unknown item {item_id!r}") from None

    def read(self, item_id: ItemId) -> ReadResult:
        """Read the latest committed value and timestamps of ``item_id``."""
        record = self.record(item_id)
        latest = record.latest
        return ReadResult(item_id=item_id, value=latest.value, rts=latest.rts, wts=latest.wts)

    def read_version(self, item_id: ItemId, at: Timestamp) -> ReadResult:
        """Read the value of ``item_id`` as of commit timestamp ``at``."""
        record = self.record(item_id)
        version = record.version_at(at)
        return ReadResult(item_id=item_id, value=version.value, rts=version.rts, wts=version.wts)

    # -- commit-time mutation -----------------------------------------------

    def apply_commit(
        self,
        commit_ts: Timestamp,
        writes: Mapping[ItemId, Value],
        reads: Iterable[ItemId] = (),
    ) -> int:
        """Apply a committed transaction to the datastore.

        Installs a new version for every written item, advances ``rts`` of
        every read item, and keeps the incremental Merkle tree in sync.
        Returns the number of Merkle node hashes recomputed (the quantity the
        benchmark harness reports as MHT update work).
        """
        return self.apply_batch([(commit_ts, writes, reads)])

    def apply_batch(
        self,
        commits: Sequence[Tuple[Timestamp, Mapping[ItemId, Value], Iterable[ItemId]]],
    ) -> int:
        """Apply a whole block's committed transactions in one Merkle sweep.

        ``commits`` is a sequence of ``(commit_ts, writes, reads)`` triples;
        they are applied to the versioned records in commit-timestamp order,
        but the Merkle tree is updated once at the end with the final value
        of every touched leaf (latest write wins), so shared ancestors are
        hashed a single time per block instead of once per transaction.
        Returns the number of Merkle node hashes recomputed.
        """
        ordered = sorted(commits, key=lambda commit: commit[0])
        merged_writes: Dict[ItemId, Value] = {}
        for commit_ts, writes, reads in ordered:
            unknown = [
                item for item in list(writes) + list(reads) if item not in self._records
            ]
            if unknown:
                raise StorageError(f"commit touches unknown items: {unknown}")
        for commit_ts, writes, reads in ordered:
            for item_id in reads:
                self._records[item_id].record_read(commit_ts)
            for item_id, value in writes.items():
                self._records[item_id].append_version(value, commit_ts, self._multi_versioned)
                merged_writes[item_id] = value
        mht_work = self._merkle.update_many(merged_writes) if merged_writes else 0
        self._mht_node_updates += mht_work
        if merged_writes:
            self._historical_trees.clear()
        return mht_work

    def corrupt(self, item_id: ItemId, value: Value) -> None:
        """Silently overwrite the latest stored value (fault injection only).

        This models the "data corruption" fault of Section 5, Scenario 3: the
        value changes in storage but the Merkle tree / log were built from the
        correct value, so a later audit detects the mismatch.
        """
        record = self.record(item_id)
        latest = record.latest
        record.versions[-1] = RecordVersion(value=value, wts=latest.wts, rts=latest.rts)
        self._historical_trees.clear()

    def rollback_to(self, timestamp: Timestamp) -> int:
        """Roll every record back to its last version at or before ``timestamp``."""
        removed = 0
        for record in self._records.values():
            if record.version_count() > 1:
                removed += record.rollback_to(timestamp)
        self._rebuild_merkle()
        return removed

    # -- Merkle integration --------------------------------------------------

    def merkle_root(self) -> bytes:
        """Root of the incremental Merkle tree over the *stored* values."""
        return self._merkle.root

    def speculative_root(self, writes: Mapping[ItemId, Value]) -> Tuple[bytes, int]:
        """Merkle root the shard would have if ``writes`` were applied.

        Used during TFCommit's vote phase: the MHT is computed in memory with
        the transaction's updates assumed committed, without touching the
        datastore (Section 4.3.1).  Returns ``(root, mht_hashes_recomputed)``
        and leaves the tree exactly as it was.
        """
        return self._merkle.speculative_root(writes)

    def verification_object(self, item_id: ItemId) -> VerificationObject:
        """VO authenticating ``item_id`` against the *current* Merkle root."""
        return self._merkle.verification_object(item_id)

    def verification_object_at(
        self, item_id: ItemId, at: Timestamp
    ) -> Tuple[VerificationObject, bytes]:
        """VO and root for the datastore state as of version ``at``.

        Only meaningful for multi-versioned datastores: the server rebuilds
        (in memory) the shard as it stood at commit timestamp ``at`` and
        produces the VO against that historical tree, exactly what the auditor
        asks a server for in Section 4.2.2.
        """
        if not self._multi_versioned:
            raise StorageError("historical verification objects require a multi-versioned store")
        tree = self._historical_tree(at)
        return tree.verification_object(item_id), tree.root

    def _historical_tree(self, at: Timestamp) -> MerkleTree:
        """The shard's Merkle tree as it stood at commit timestamp ``at``.

        Instead of rebuilding the whole tree per VO request, the current
        incremental tree is cloned and only the leaves whose historical value
        differs are re-hashed in one batched sweep; the resulting tree is
        cached so an audit asking for every written item of a block pays the
        derivation once.  The cache is cleared on any state change (including
        injected corruption, which alters the values the records report).

        A leaf differs when its value is another object that encodes
        differently: ``==`` would call ``False`` and ``0`` the same and leave
        the later leaf in the earlier tree.
        """
        key = at.as_tuple()
        tree = self._historical_trees.get(key)
        if tree is None:
            diff = {}
            for other_id, record in self._records.items():
                historical_value = record.version_at(at).value
                current = self._merkle.value_of(other_id)
                if historical_value is not current and (
                    canonical_encode(historical_value) != canonical_encode(current)
                ):
                    diff[other_id] = historical_value
            tree = self._merkle.clone()
            tree.update_many(diff)
            if len(self._historical_trees) >= 8:
                self._historical_trees.pop(next(iter(self._historical_trees)))
            self._historical_trees[key] = tree
        return tree

    def snapshot(self) -> Dict[ItemId, Value]:
        """Latest committed value of every item (id -> value)."""
        return {item_id: record.value for item_id, record in self._records.items()}

    # -- durable-state support (crash recovery) -------------------------------

    def export_state(self) -> Dict[str, object]:
        """Dump of every record's full version chain: ``multi_versioned`` and
        ``items``, each item id beside its :class:`RecordVersion` objects.

        These are the two datastore fields of the snapshot record the recovery
        :class:`~repro.recovery.statestore.StateStore` persists; the versions
        are handed over as they are, because the record's writer takes them
        as objects: a chain of exactly the shared genesis version is one
        constant (:data:`~repro.storage.record.VERSION_CHAIN`), any other is
        walked.  :meth:`import_state` is the exact inverse (byte-identical
        Merkle root, identical rts/wts on every version).
        """
        return {
            "multi_versioned": self._multi_versioned,
            "items": {
                item_id: tuple(record.versions) for item_id, record in self._records.items()
            },
        }

    @classmethod
    def import_state(cls, state: Mapping[str, object]) -> "DataStore":
        """Rebuild a datastore from an :meth:`export_state` dump.

        The state store reads a snapshot record's bytes straight into
        ``RecordVersion`` objects, so that is what a dump normally holds.  A
        dump that went through ``canonical_decode`` instead holds each
        version's plain wire form, which is read the strict way here: a
        field of the wrong type is refused
        (:class:`~repro.common.errors.ValidationError`), not coerced.  Either
        way, an item restored at its initial state holds the one genesis
        version again, as it did before the dump.
        """
        store = cls.__new__(cls)
        store._multi_versioned = BOOL.decode(state["multi_versioned"], "multi_versioned")
        records: Dict[ItemId, VersionedRecord] = {}
        for item_id, versions in state["items"].items():
            if not versions:
                raise StorageError(f"persisted item {item_id!r} has no versions")
            records[item_id] = VersionedRecord(
                item_id=item_id,
                versions=[
                    shared_version(
                        version
                        if type(version) is RecordVersion
                        else RecordVersion.from_wire(version)
                    )
                    for version in versions
                ],
            )
        store._records = records
        store._merkle = MerkleTree.from_items(
            {item_id: record.value for item_id, record in records.items()}
        )
        store._mht_node_updates = 0
        store._historical_trees = {}
        return store

    def _rebuild_merkle(self) -> None:
        self._merkle = MerkleTree.from_items(self.snapshot())
        self._historical_trees.clear()

    @property
    def mht_node_updates(self) -> int:
        """Total Merkle node hashes recomputed by committed writes so far."""
        return self._mht_node_updates
