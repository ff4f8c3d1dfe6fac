"""Timestamp-ordering optimistic concurrency control.

Fides provides serializable executions: "at commit time, a server checks if
the data accessed in the terminating transaction has been updated since they
were read.  If yes, the server chooses to abort" (Section 4.3.1).  The same
timestamp rules are one of the auditor's isolation checks (Lemma 3), which
looks for three classes of conflicting access inconsistent with timestamp
order:

* **RW-conflict** -- a transaction with a smaller timestamp read an item that
  already carries a larger write timestamp;
* **WW-conflict** -- a transaction with a smaller timestamp wrote an item
  already written at a larger timestamp;
* **WR-conflict** -- a transaction with a smaller timestamp wrote an item
  after it was read by a transaction with a larger timestamp.

Each recorded stamp witnesses one conflict edge, so with all of them below
the commit timestamp the serialization graph is acyclic without being built
(DESIGN.md section 5, "Which checks carry Lemma 3").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Sequence

from repro.common.timestamps import Timestamp
from repro.storage.datastore import DataStore
from repro.txn.transaction import Transaction


class ConflictKind(Enum):
    """The three timestamp-order conflicts of Lemma 3."""

    READ_WRITE = "rw-conflict"
    WRITE_WRITE = "ww-conflict"
    WRITE_READ = "wr-conflict"
    STALE_READ = "stale-read"


@dataclass(frozen=True, slots=True)
class Conflict:
    """One detected conflict, naming the item and the timestamps involved."""

    kind: ConflictKind
    item_id: str
    txn_ts: Timestamp
    existing_ts: Timestamp

    def describe(self) -> str:
        return (
            f"{self.kind.value} on {self.item_id}: transaction at {self.txn_ts} vs "
            f"existing timestamp {self.existing_ts}"
        )


@dataclass(frozen=True, slots=True)
class ValidationOutcome:
    """Result of validating one transaction against one server's datastore."""

    commit: bool
    conflicts: Sequence[Conflict] = field(default_factory=tuple)

    @property
    def abort(self) -> bool:
        return not self.commit

    def reason(self) -> str:
        if self.commit:
            return "ok"
        return "; ".join(conflict.describe() for conflict in self.conflicts)


class OccValidator:
    """Commit-time validation of a transaction against local shard state.

    The validator only inspects items stored locally (entries whose item ids
    are present in the datastore); a cohort is only responsible for its own
    shard.
    """

    def __init__(self, store: DataStore) -> None:
        self._store = store

    def validate(self, txn: Transaction) -> ValidationOutcome:
        """Apply the timestamp-ordering checks of Section 4.3.1.

        A transaction commits locally iff, for every locally stored item it
        accessed, the item has not been read or written by a newer
        transaction since the values/timestamps in the request were observed.
        """
        conflicts: List[Conflict] = []
        commit_ts = txn.commit_ts
        for entry in txn.read_set:
            if entry.item_id not in self._store:
                continue
            current = self._store.read(entry.item_id)
            # The commit timestamp must exceed whatever is already committed.
            if commit_ts <= current.wts:
                conflicts.append(
                    Conflict(ConflictKind.READ_WRITE, entry.item_id, commit_ts, current.wts)
                )
            # The value read must still be the latest committed version,
            # otherwise the transaction read data that has since changed.
            elif current.wts != entry.wts:
                conflicts.append(
                    Conflict(ConflictKind.STALE_READ, entry.item_id, commit_ts, current.wts)
                )
        for entry in txn.write_set:
            if entry.item_id not in self._store:
                continue
            current = self._store.read(entry.item_id)
            if commit_ts <= current.wts:
                conflicts.append(
                    Conflict(ConflictKind.WRITE_WRITE, entry.item_id, commit_ts, current.wts)
                )
            if commit_ts <= current.rts:
                conflicts.append(
                    Conflict(ConflictKind.WRITE_READ, entry.item_id, commit_ts, current.rts)
                )
        return ValidationOutcome(commit=not conflicts, conflicts=tuple(conflicts))


def classify_conflicts(txn: Transaction) -> List[Conflict]:
    """Classify conflicts visible purely from a transaction's own read/write sets.

    The auditor applies this to *logged* transactions (it has no datastore):
    the timestamps recorded in the read/write sets must all be strictly
    smaller than the transaction's commit timestamp, otherwise the server
    that committed it violated timestamp ordering (Lemma 3).
    """
    conflicts: List[Conflict] = []
    commit_ts = txn.commit_ts
    for entry in txn.read_set:
        if entry.wts >= commit_ts:
            conflicts.append(Conflict(ConflictKind.READ_WRITE, entry.item_id, commit_ts, entry.wts))
    for entry in txn.write_set:
        if entry.wts >= commit_ts:
            conflicts.append(
                Conflict(ConflictKind.WRITE_WRITE, entry.item_id, commit_ts, entry.wts)
            )
        if entry.rts >= commit_ts:
            conflicts.append(
                Conflict(ConflictKind.WRITE_READ, entry.item_id, commit_ts, entry.rts)
            )
    return conflicts
