"""One in-flight client transaction.

A session tracks everything the client has read and written so far and turns
it into the read / write sets the coordinator needs at end-transaction time
(the ``R_set`` / ``W_set`` of Table 1).  The session follows the life-cycle of
Figure 5: begin transaction, read/write requests, end transaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.common.errors import ProtocolError
from repro.common.timestamps import Timestamp
from repro.common.types import ClientId, ItemId, TxnId, Value
from repro.txn.transaction import ReadSetEntry, Transaction, WriteSetEntry


@dataclass
class TransactionSession:
    """Client-side state of one transaction between ``begin`` and ``commit``."""

    txn_id: TxnId
    client_id: ClientId
    _read_entries: List[ReadSetEntry] = field(default_factory=list)
    _write_entries: Dict[ItemId, WriteSetEntry] = field(default_factory=dict)
    _items_read: Set[ItemId] = field(default_factory=set)
    _servers_contacted: Set[str] = field(default_factory=set)
    finished: bool = False

    # -- recording accesses -----------------------------------------------------

    def record_read(self, item_id: ItemId, value: Value, rts: Timestamp, wts: Timestamp) -> None:
        self._ensure_open()
        self._read_entries.append(ReadSetEntry(item_id=item_id, value=value, rts=rts, wts=wts))
        self._items_read.add(item_id)

    def record_write(
        self,
        item_id: ItemId,
        new_value: Value,
        old_value: Value,
        rts: Timestamp,
        wts: Timestamp,
    ) -> None:
        """Record a write; the old value/timestamps are kept only for blind writes."""
        self._ensure_open()
        blind = item_id not in self._items_read
        self._write_entries[item_id] = WriteSetEntry(
            item_id=item_id,
            new_value=new_value,
            old_value=old_value if blind else None,
            rts=rts,
            wts=wts,
            blind=blind,
        )

    def record_server(self, server_id: str) -> None:
        self._servers_contacted.add(server_id)

    # -- views ---------------------------------------------------------------------

    @property
    def items_read(self) -> Set[ItemId]:
        return set(self._items_read)

    @property
    def items_written(self) -> Set[ItemId]:
        return set(self._write_entries)

    @property
    def servers_contacted(self) -> Set[str]:
        return set(self._servers_contacted)

    def observed_timestamps(self) -> List[Timestamp]:
        """Every rts/wts the session has seen; the client clock must exceed them all."""
        stamps: List[Timestamp] = []
        for entry in self._read_entries:
            stamps.extend([entry.rts, entry.wts])
        for entry in self._write_entries.values():
            stamps.extend([entry.rts, entry.wts])
        return stamps

    # -- termination ------------------------------------------------------------------

    def build_transaction(self, commit_ts: Timestamp) -> Transaction:
        """Assemble the terminated transaction sent to the coordinator."""
        self._ensure_open()
        self.finished = True
        return Transaction(
            txn_id=self.txn_id,
            client_id=self.client_id,
            commit_ts=commit_ts,
            read_set=tuple(self._read_entries),
            write_set=tuple(self._write_entries.values()),
        )

    def _ensure_open(self) -> None:
        if self.finished:
            raise ProtocolError(f"transaction {self.txn_id} has already been terminated")

