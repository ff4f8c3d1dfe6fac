"""Transactions and their read / write sets.

These structures carry exactly the per-transaction information that ends up
inside a block (Table 1 of the paper):

* the commit timestamp that identifies the transaction,
* the read set: ``<id : value, rts, wts>`` for every item read,
* the write set: ``<id : new_val, old_val, rts, wts>`` for every item
  written (``old_val`` is only populated for blind writes -- items written
  without being read first).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Set

from repro.common.encoding import canonical_encode
from repro.common.timestamps import Timestamp
from repro.common.types import ClientId, ItemId, TxnId, Value
from repro.common.wire import ANY, BOOL, STR, TIMESTAMP, kept, list_of, nested, wire_form


@wire_form(("item_id", STR), ("value", ANY), ("rts", TIMESTAMP), ("wts", TIMESTAMP))
@dataclass(frozen=True, slots=True)
class ReadSetEntry:
    """One read-set entry: the value observed and its timestamps at read time."""

    item_id: ItemId
    value: Value
    rts: Timestamp
    wts: Timestamp


@wire_form(
    ("item_id", STR),
    ("new_value", ANY),
    ("old_value", ANY),
    ("rts", TIMESTAMP),
    ("wts", TIMESTAMP),
    ("blind", BOOL),
)
@dataclass(frozen=True, slots=True)
class WriteSetEntry:
    """One write-set entry: the new value and, for blind writes, the old value."""

    item_id: ItemId
    new_value: Value
    old_value: Value = None
    rts: Timestamp = Timestamp.zero()
    wts: Timestamp = Timestamp.zero()
    blind: bool = False


@wire_form(
    ("txn_id", STR),
    ("client_id", STR),
    ("commit_ts", TIMESTAMP),
    ("read_set", list_of(nested(ReadSetEntry))),
    ("write_set", list_of(nested(WriteSetEntry))),
    owns_bytes=True,
)
@dataclass(frozen=True)
class Transaction:
    """A terminated (ready-to-commit) transaction.

    This is the object a client sends to the coordinator in its
    ``end_transaction`` request and the unit that TFCommit batches into
    blocks.  It owns its bytes, as a block does: a client builds it once, and
    every envelope, block and WAL record that carries it splices the same
    encoding (DESIGN.md section 6, "Who owns the bytes").
    """

    txn_id: TxnId
    client_id: ClientId
    commit_ts: Timestamp
    read_set: Sequence[ReadSetEntry] = field(default_factory=tuple)
    write_set: Sequence[WriteSetEntry] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "read_set", tuple(self.read_set))
        object.__setattr__(self, "write_set", tuple(self.write_set))

    # -- derived views -------------------------------------------------------

    def items_read(self) -> Set[ItemId]:
        return {entry.item_id for entry in self.read_set}

    def items_written(self) -> Set[ItemId]:
        return {entry.item_id for entry in self.write_set}

    def items_accessed(self) -> Set[ItemId]:
        return self.items_read() | self.items_written()

    def conflicts_with(self, other: "Transaction") -> bool:
        """True if the two transactions access a common item and at least one writes it.

        Used by the coordinator's batch builder: only *non-conflicting*
        transactions may share a block (Section 4.6).
        """
        mine_w = self.items_written()
        theirs_w = other.items_written()
        if mine_w & theirs_w:
            return True
        if mine_w & other.items_read():
            return True
        if theirs_w & self.items_read():
            return True
        return False

    @kept
    def encoded(self) -> bytes:
        """The flat signing form of this transaction, kept per instance.

        Block digests hash this form, not :meth:`wire_bytes`: a flat,
        length-prefixed field list.  Its bytes are signed content (every
        co-sign covers them), so they stay as they are; until the body digest
        can become a hash of wire bytes, a transaction carries both forms.
        """
        parts = [
            self.txn_id,
            self.client_id,
            self.commit_ts.counter,
            self.commit_ts.client_id,
            len(self.read_set),
            len(self.write_set),
        ]
        for entry in self.read_set:
            parts.extend(
                (
                    entry.item_id,
                    entry.value,
                    entry.rts.counter,
                    entry.rts.client_id,
                    entry.wts.counter,
                    entry.wts.client_id,
                )
            )
        for entry in self.write_set:
            parts.extend(
                (
                    entry.item_id,
                    entry.new_value,
                    entry.old_value,
                    entry.blind,
                    entry.rts.counter,
                    entry.rts.client_id,
                    entry.wts.counter,
                    entry.wts.client_id,
                )
            )
        return canonical_encode(parts)

