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
    GENESIS_CHAIN,
    RecordVersion,
    initial_version,
    is_initial,
    shared_chain,
    shared_version,
)

#: An item's version chain, oldest first: a tuple no store owns (for an
#: untouched genesis item, :data:`~repro.storage.record.GENESIS_CHAIN`
#: itself) until the item's first touch gives it a list of its own.
Chain = Sequence[RecordVersion]


@wire_form(("item_id", STR), ("value", ANY), ("rts", TIMESTAMP), ("wts", TIMESTAMP))
@dataclass(frozen=True, slots=True)
class ReadResult:
    """Result of a timestamped read: the value plus its current timestamps."""

    item_id: ItemId
    value: Value
    rts: Timestamp
    wts: Timestamp


class DataStore:
    """Versioned key-value store for a single shard.

    Every item id maps straight to its version chain (:data:`Chain`).  An
    item that starts at the initial value holds the one
    :data:`~repro.storage.record.GENESIS_CHAIN`, any other initial value a
    one-version tuple at the genesis stamp.  The first write, read-timestamp
    advance, corruption or rollback of an item copies its chain into a list
    only this store holds (:meth:`_own`), so a shared chain is never changed.

    Parameters
    ----------
    items:
        Initial ``item_id -> value`` contents.
    multi_versioned:
        Keep the full version chain (True, the default used in the paper's
        audit discussion) or only the latest version.
    """

    def __init__(self, items: Mapping[ItemId, Value], multi_versioned: bool = True) -> None:
        self._multi_versioned = multi_versioned
        self._records: Dict[ItemId, Chain] = {
            item_id: GENESIS_CHAIN if is_initial(value) else (initial_version(value),)
            for item_id, value in items.items()
        }
        self._merkle = MerkleTree(items)
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

    def versions(self, item_id: ItemId) -> Tuple[RecordVersion, ...]:
        """The version chain of ``item_id``, oldest first, as a tuple."""
        return tuple(self._chain(item_id))

    def _chain(self, item_id: ItemId) -> Chain:
        try:
            return self._records[item_id]
        except KeyError:
            raise StorageError(f"unknown item {item_id!r}") from None

    def _own(self, item_id: ItemId) -> List[RecordVersion]:
        """The chain of ``item_id`` as a list only this store holds, copied
        from the shared tuple on the item's first touch."""
        chain = self._records[item_id]
        if type(chain) is not list:
            chain = self._records[item_id] = list(chain)
        return chain

    def read(self, item_id: ItemId) -> ReadResult:
        """Read the latest committed value and timestamps of ``item_id``."""
        latest = self._chain(item_id)[-1]
        return ReadResult(item_id=item_id, value=latest.value, rts=latest.rts, wts=latest.wts)

    def read_version(self, item_id: ItemId, at: Timestamp) -> ReadResult:
        """Read the value of ``item_id`` as of commit timestamp ``at``."""
        version = _version_at(item_id, self._chain(item_id), at)
        return ReadResult(item_id=item_id, value=version.value, rts=version.rts, wts=version.wts)

    # -- commit-time mutation -----------------------------------------------

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
        records = self._records
        for commit_ts, writes, reads in ordered:
            for item_id in reads:
                latest = records[item_id][-1]
                advanced = latest.with_rts(commit_ts)
                if advanced is not latest:
                    self._own(item_id)[-1] = advanced
            for item_id, value in writes.items():
                written = RecordVersion(value, commit_ts, commit_ts)
                if self._multi_versioned:
                    self._own(item_id).append(written)
                else:
                    records[item_id] = [written]
                merged_writes[item_id] = value
        mht_work = self._merkle.update_many(merged_writes) if merged_writes else 0
        if merged_writes:
            self._historical_trees.clear()
        return mht_work

    def corrupt(self, item_id: ItemId, value: Value) -> None:
        """Silently overwrite the latest stored value (fault injection only).

        This models the "data corruption" fault of Section 5, Scenario 3: the
        value changes in storage but the Merkle tree / log were built from the
        correct value, so a later audit detects the mismatch.
        """
        latest = self._chain(item_id)[-1]
        self._own(item_id)[-1] = RecordVersion(value=value, wts=latest.wts, rts=latest.rts)
        self._historical_trees.clear()

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
            for other_id, chain in self._records.items():
                historical_value = _version_at(other_id, chain, at).value
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
        return {item_id: chain[-1].value for item_id, chain in self._records.items()}

    # -- durable-state support (crash recovery) -------------------------------

    def export_state(self) -> Dict[str, object]:
        """Dump of every item's full version chain: ``multi_versioned`` and
        ``items``, each item id beside its chain of :class:`RecordVersion`
        objects.

        These are the two datastore fields of the snapshot record the recovery
        :class:`~repro.recovery.statestore.StateStore` persists.  The chains
        are handed over *live*, not copied: the next commit to this store
        changes a chain it has touched, so a caller must encode the dump at
        once, as the state store does (both of its stores hold bytes, never
        objects).  A chain of exactly the shared genesis version is written
        as one constant (:data:`~repro.storage.record.VERSION_CHAIN`), any
        other is walked.  :meth:`import_state` is the exact inverse
        (byte-identical Merkle root, identical rts/wts on every version).
        """
        return {"multi_versioned": self._multi_versioned, "items": dict(self._records)}

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
        chain again, as it did before the dump, and every other item a tuple
        of its own that the dump's holder cannot change.
        """
        store = cls.__new__(cls)
        store._multi_versioned = BOOL.decode(state["multi_versioned"], "multi_versioned")
        records: Dict[ItemId, Chain] = {}
        for item_id, versions in state["items"].items():
            if not versions:
                raise StorageError(f"persisted item {item_id!r} has no versions")
            records[item_id] = shared_chain(
                tuple(
                    shared_version(
                        version
                        if type(version) is RecordVersion
                        else RecordVersion.from_wire(version)
                    )
                    for version in versions
                )
            )
        store._records = records
        store._merkle = MerkleTree(store.snapshot())
        store._historical_trees = {}
        return store


def _version_at(item_id: ItemId, chain: Chain, timestamp: Timestamp) -> RecordVersion:
    """The version of ``chain`` visible at ``timestamp``: the newest whose
    ``wts`` is <= ``timestamp``; used by per-version audits of
    multi-versioned datastores."""
    candidate = None
    for version in chain:
        if version.wts <= timestamp:
            candidate = version
        else:
            break
    if candidate is None:
        raise StorageError(f"item {item_id!r} has no version at or before {timestamp}")
    return candidate
