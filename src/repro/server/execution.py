"""The transaction execution layer of a database server.

Responsibilities (Section 4.2.1):

* answer read requests with the item's value and its ``rts``/``wts``;
* buffer write requests and acknowledge them (including the old value and
  timestamps for blind writes);
* keep an archive of the signed client requests so a server can defend
  itself against a malicious client's falsified blame (Section 3.2).

The layer consults the server's :class:`~repro.server.faults.FaultPolicy`
so malicious behaviour (returning wrong read values) can be injected without
touching the honest code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.common.errors import StorageError
from repro.common.types import ClientId, ItemId, TxnId, Value
from repro.net.message import Envelope
from repro.server.faults import FaultPolicy
from repro.storage.datastore import DataStore, ReadResult


@dataclass
class ActiveTransaction:
    """Per-transaction execution state kept while a client is still working."""

    txn_id: TxnId
    client_id: ClientId
    items_read: List[ItemId] = field(default_factory=list)
    buffered_writes: Dict[ItemId, Value] = field(default_factory=dict)


class ExecutionLayer:
    """Executes transactional reads and buffers writes for one shard."""

    def __init__(self, store: DataStore, faults: Optional[FaultPolicy] = None) -> None:
        self._store = store
        self._faults = faults or FaultPolicy()
        self._active: Dict[TxnId, ActiveTransaction] = {}
        #: Archive of signed client envelopes, the server's defence against
        #: falsified client accusations (Section 3.2), until a checkpoint
        #: covers their transactions.
        self._client_message_log: List[Envelope] = []

    @property
    def store(self) -> DataStore:
        return self._store

    @property
    def faults(self) -> FaultPolicy:
        return self._faults

    def set_faults(self, faults: FaultPolicy) -> None:
        self._faults = faults

    def archive_client_message(self, envelope: Envelope) -> None:
        self._client_message_log.append(envelope)

    def forget_client_messages(self, txn_ids: Set[TxnId]) -> None:
        """Drop the archived requests of ``txn_ids``, whose blocks a co-signed
        checkpoint covers: the checkpoint, not the requests, now vouches for them."""
        self._client_message_log = [
            envelope
            for envelope in self._client_message_log
            if envelope.payload.txn_id not in txn_ids
        ]

    # -- transaction life-cycle -------------------------------------------------

    def begin(self, txn_id: TxnId, client_id: ClientId) -> None:
        """Start tracking a client transaction (Begin Transaction, Figure 5)."""
        if txn_id not in self._active:
            self._active[txn_id] = ActiveTransaction(txn_id=txn_id, client_id=client_id)

    def read(self, txn_id: TxnId, item_id: ItemId) -> ReadResult:
        """Serve a read: latest value + timestamps from the local shard."""
        if item_id not in self._store:
            raise StorageError(f"item {item_id!r} is not stored on this server")
        active = self._active.setdefault(txn_id, ActiveTransaction(txn_id, client_id=""))
        active.items_read.append(item_id)
        result = self._store.read(item_id)
        reported_value = self._faults.corrupt_read_value(item_id, result.value)
        return ReadResult(
            item_id=item_id, value=reported_value, rts=result.rts, wts=result.wts
        )

    def write(self, txn_id: TxnId, item_id: ItemId, value: Value) -> ReadResult:
        """Buffer a write and return the *old* value + timestamps (blind-write support)."""
        if item_id not in self._store:
            raise StorageError(f"item {item_id!r} is not stored on this server")
        active = self._active.setdefault(txn_id, ActiveTransaction(txn_id, client_id=""))
        active.buffered_writes[item_id] = value
        return self._store.read(item_id)

    def buffered_writes(self, txn_id: TxnId) -> Dict[ItemId, Value]:
        """The writes buffered so far for ``txn_id`` (empty if none)."""
        active = self._active.get(txn_id)
        return dict(active.buffered_writes) if active else {}

    def finish(self, txn_id: TxnId) -> None:
        """Forget the per-transaction state once the transaction terminated."""
        self._active.pop(txn_id, None)

    def finish_many(self, txn_ids: Iterable[TxnId]) -> int:
        """Forget the state of every transaction in a terminated block.

        Called by the server once a block's decision has been applied; without
        it the per-transaction buffers of batched workloads accumulate
        forever, which matters once many concurrent clients drive the system.
        Returns how many active entries were released.
        """
        released = 0
        for txn_id in txn_ids:
            if self._active.pop(txn_id, None) is not None:
                released += 1
        return released
