"""The durable state layer behind crash recovery.

A :class:`StateStore` persists, for one server, everything its *volatile*
process state can be rebuilt from:

* a **snapshot** record -- the datastore's full version chains plus the
  latest collectively signed checkpoint (``None`` at genesis) and the height
  of the next block the snapshot expects;
* one **block** record per log block applied since the snapshot, together
  with the shard's Merkle root *after* applying it (recovery replays the
  blocks and refuses to proceed if the roots do not line up -- a corrupted
  WAL must not silently resurrect a diverged server).

Two implementations share all logic and differ only in where the encoded
records live: :class:`MemoryStateStore` keeps them in a list (the "durable
RAM disk" used by tests and the in-memory benchmark arm), and
:class:`FileStateStore` appends them to a write-ahead log file with CRC-framed
records and atomic snapshot compaction (crashes mid-append leave a truncated
tail that loading simply ignores).

Both stores hold **encoded bytes**, never live objects: state only survives a
crash by round-tripping through :func:`~repro.common.encoding.canonical_encode`,
so a recovered server provably rebuilt itself from serialised state rather
than from aliased Python references.

Installing a checkpoint compacts the store: one fresh snapshot (carrying the
checkpoint and the current datastore) replaces the initial snapshot and every
block record the checkpoint covers, which is exactly the Section 3.3 storage
bound -- WAL size is O(blocks since last checkpoint), not O(history).
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.common.encoding import canonical_decode, canonical_encode
from repro.common.errors import RecoveryError
from repro.ledger.block import Block
from repro.ledger.checkpoint import Checkpoint


@dataclass
class PersistedState:
    """Everything :meth:`StateStore.load` recovers.

    ``blocks`` carries ``(block, shard_root_after_apply)`` pairs in append
    order; blocks with ``height >= snapshot_next_height`` must be replayed
    into the restored datastore, earlier ones (a retained log suffix already
    reflected in the snapshot) only restore log content.
    """

    server_id: str
    datastore_state: Dict
    checkpoint: Optional[Checkpoint]
    snapshot_next_height: int
    blocks: List[Tuple[Block, bytes]] = field(default_factory=list)

    @property
    def log_base_height(self) -> int:
        """Truncation boundary of the restored log (0 without a checkpoint)."""
        return self.checkpoint.height + 1 if self.checkpoint is not None else 0


class StateStore:
    """Base class: record encoding/decoding over an abstract byte journal."""

    # -- primitive journal operations (implemented by subclasses) --------------

    def _append(self, payload: bytes) -> None:
        raise NotImplementedError

    def _replace(self, payloads: List[bytes]) -> None:
        raise NotImplementedError

    def _iter_payloads(self) -> Iterable[bytes]:
        raise NotImplementedError

    def size_bytes(self) -> int:
        raise NotImplementedError

    # -- recording -------------------------------------------------------------

    @staticmethod
    def _snapshot_record(
        server_id: str,
        datastore_state: Dict,
        checkpoint: Optional[Checkpoint],
        next_height: int,
    ) -> Dict:
        return {
            "kind": "snapshot",
            "server_id": server_id,
            "next_height": next_height,
            "datastore": datastore_state,
            "checkpoint": checkpoint.to_wire() if checkpoint is not None else None,
        }

    def initialize(self, server_id: str, datastore_state: Dict) -> None:
        """Record the genesis snapshot; a no-op on a store that already has state.

        The no-op path is what lets a restarted process point a fresh server
        at an existing WAL file and recover from it instead of clobbering it.
        """
        if self.is_initialized():
            return
        self._append(
            canonical_encode(
                self._snapshot_record(server_id, datastore_state, None, 0)
            )
        )

    def is_initialized(self) -> bool:
        for _ in self._iter_payloads():
            return True
        return False

    def record_block(self, block: Block, shard_root: bytes) -> None:
        """Persist one applied block and the shard root it produced.

        The block is passed to the encoder as the object (not pre-flattened
        with ``to_wire()``), so the record is spliced from the bytes its
        transactions already own: the block stores no encoding, and every
        server persisting the same delivered block re-walks only its header.
        """
        self._append(
            canonical_encode({"kind": "block", "block": block, "shard_root": shard_root})
        )

    def install_checkpoint(
        self,
        checkpoint: Checkpoint,
        datastore_state: Dict,
        next_height: int,
        server_id: str,
    ) -> None:
        """Compact the journal under ``checkpoint``.

        Writes a fresh snapshot (checkpoint + current datastore) and retains
        only block records the checkpoint does *not* cover, atomically
        replacing the journal contents.
        """
        retained: List[bytes] = []
        for record in self._iter_records():
            if record["kind"] != "block":
                continue
            if int(record["block"]["body"]["height"]) > checkpoint.height:
                retained.append(canonical_encode(record))
        snapshot = canonical_encode(
            self._snapshot_record(server_id, datastore_state, checkpoint, next_height)
        )
        self._replace([snapshot] + retained)

    # -- loading ---------------------------------------------------------------

    def _iter_records(self) -> Iterable[Dict]:
        for payload in self._iter_payloads():
            try:
                record = canonical_decode(payload)
            except ValueError as exc:
                raise RecoveryError(f"corrupt state-store record: {exc}") from None
            if not isinstance(record, dict) or "kind" not in record:
                raise RecoveryError("state-store record is not a tagged dict")
            yield record

    def load(self) -> PersistedState:
        """Decode the journal into a :class:`PersistedState`.

        The *last* snapshot record wins (compaction rewrites the journal, so
        normally there is exactly one); block records after it are returned
        in journal order.
        """
        state: Optional[PersistedState] = None
        for record in self._iter_records():
            if record["kind"] == "snapshot":
                checkpoint = (
                    Checkpoint.from_wire(record["checkpoint"])
                    if record["checkpoint"] is not None
                    else None
                )
                state = PersistedState(
                    server_id=record["server_id"],
                    datastore_state=record["datastore"],
                    checkpoint=checkpoint,
                    snapshot_next_height=int(record["next_height"]),
                )
            elif record["kind"] == "block":
                if state is None:
                    raise RecoveryError("state store has block records before any snapshot")
                state.blocks.append(
                    (Block.from_wire(record["block"]), record["shard_root"])
                )
            else:
                raise RecoveryError(f"unknown state-store record kind {record['kind']!r}")
        if state is None:
            raise RecoveryError("state store holds no snapshot; nothing to recover from")
        return state

    def close(self) -> None:  # pragma: no cover - only FileStateStore needs it
        pass


class MemoryStateStore(StateStore):
    """Journal in a list of encoded records (simulated durable storage)."""

    def __init__(self) -> None:
        self._payloads: List[bytes] = []

    def _append(self, payload: bytes) -> None:
        self._payloads.append(payload)

    def _replace(self, payloads: List[bytes]) -> None:
        self._payloads = list(payloads)

    def _iter_payloads(self) -> Iterable[bytes]:
        return iter(list(self._payloads))

    def size_bytes(self) -> int:
        return sum(len(p) for p in self._payloads)


#: Frame header: payload length + CRC32 of the payload.
_FRAME_HEADER = struct.Struct(">II")


class FileStateStore(StateStore):
    """Append-only write-ahead log file with CRC framing and atomic compaction.

    Each record is framed as ``length || crc32 || payload``.  Loading stops
    silently at the first truncated or CRC-corrupt frame: that is the frame a
    crash interrupted, and everything before it is intact by construction.
    Compaction writes the replacement journal to ``<path>.tmp`` and
    ``os.replace``\\ s it into place, so a crash during compaction leaves
    either the old journal or the new one, never a mix.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._handle = open(path, "ab")

    @staticmethod
    def _frame(payload: bytes) -> bytes:
        return _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload

    def _append(self, payload: bytes) -> None:
        self._handle.write(self._frame(payload))
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def _replace(self, payloads: List[bytes]) -> None:
        tmp_path = self.path + ".tmp"
        with open(tmp_path, "wb") as tmp:
            for payload in payloads:
                tmp.write(self._frame(payload))
            tmp.flush()
            os.fsync(tmp.fileno())
        self._handle.close()
        os.replace(tmp_path, self.path)
        self._handle = open(self.path, "ab")

    def _iter_payloads(self) -> Iterable[bytes]:
        self._handle.flush()
        with open(self.path, "rb") as handle:
            data = handle.read()
        offset = 0
        while offset + _FRAME_HEADER.size <= len(data):
            length, crc = _FRAME_HEADER.unpack_from(data, offset)
            start = offset + _FRAME_HEADER.size
            end = start + length
            if end > len(data):
                break  # torn tail: the frame a crash interrupted
            payload = data[start:end]
            if zlib.crc32(payload) != crc:
                break
            yield payload
            offset = end

    def size_bytes(self) -> int:
        self._handle.flush()
        return os.path.getsize(self.path)

    def close(self) -> None:
        self._handle.close()
