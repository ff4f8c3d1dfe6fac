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
crash by round-tripping through its byte form, so a recovered server provably
rebuilt itself from serialised state rather than from aliased Python
references.  The two records are declared wire forms (:class:`BlockRecord`,
:class:`SnapshotRecord`; see :mod:`repro.common.wire`): a snapshot record is
its derived ``wire_bytes()``, which writes each item's chain through
:data:`~repro.storage.record.VERSION_CHAIN` (one constant for a chain that
is exactly the genesis version), and a block record is appended as three
byte pieces -- the form's opening constant, the bytes the block owns, the
shard root under its key -- whose join is exactly its ``wire_bytes()``.
The memory store keeps those pieces as they are, so the 32 journals of the
scaled deployment share one copy of each
delivered block's bytes, and joins a record only when it is read; the file
store writes their join as one frame.  Reading a record is its derived
``from_bytes()``, which walks the declared layout straight into objects and
refuses -- naming the byte -- any payload the writer could not have produced.
No record is decoded into plain data on the way, and none is re-encoded:
compaction keeps a retained record as it was stored.

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
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.common.encoding import canonical_encode
from repro.common.errors import RecoveryError, ValidationError
from repro.common.wire import (
    BOOL,
    BYTES,
    INT,
    STR,
    map_of,
    nested,
    optional,
    sibling_reader,
    sub,
    tag,
    wire_form,
)
from repro.ledger.block import Block
from repro.ledger.checkpoint import Checkpoint
from repro.storage.record import VERSION_CHAIN, RecordVersion


@wire_form(tag("kind", "block"), ("block", nested(Block)), ("shard_root", BYTES))
@dataclass(frozen=True, slots=True)
class BlockRecord:
    """Journal record: one applied block and the shard root it produced."""

    block: Block
    shard_root: bytes


@wire_form(
    tag("kind", "snapshot"),
    ("server_id", STR),
    ("next_height", INT),
    sub(
        "datastore",
        ("multi_versioned", BOOL),
        ("items", map_of(VERSION_CHAIN)),
    ),
    ("checkpoint", optional(nested(Checkpoint))),
)
@dataclass(frozen=True, slots=True)
class SnapshotRecord:
    """Journal record: a datastore dump (:meth:`DataStore.export_state`'s two
    fields), the checkpoint it was taken under and the next block it expects."""

    server_id: str
    next_height: int
    multi_versioned: bool
    items: Dict[str, Tuple[RecordVersion, ...]]
    checkpoint: Optional[Checkpoint]


_read_record = sibling_reader(BlockRecord, SnapshotRecord)


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


#: A journal record as it is stored: byte pieces whose join is its payload.
Pieces = Tuple[bytes, ...]

#: What follows the block in a block record's bytes: the ``shard_root`` key
#: (the root's own encoding comes after it).
_SHARD_ROOT_KEY = canonical_encode("shard_root")


class StateStore:
    """Base class: the journal's two record forms over an abstract byte journal."""

    #: The last shard root recorded, and the record piece that carries it.
    _last_root: Optional[bytes] = None
    _last_root_piece: bytes = b""

    # -- primitive journal operations (implemented by subclasses) --------------

    def _append(self, *pieces: bytes) -> None:
        """Append one record, the join of ``pieces``."""
        raise NotImplementedError

    def _replace(self, records: List[Pieces]) -> None:
        raise NotImplementedError

    def _iter_stored(self) -> Iterable[Pieces]:
        """Every record as it is stored, in journal order."""
        raise NotImplementedError

    def size_bytes(self) -> int:
        raise NotImplementedError

    # -- recording -------------------------------------------------------------

    def initialize(self, server_id: str, datastore_state: Dict) -> None:
        """Record the genesis snapshot; a no-op on a store that already has state.

        The no-op path is what lets a restarted process point a fresh server
        at an existing WAL file and recover from it instead of clobbering it.
        """
        if not self.is_initialized():
            self._append(_snapshot(server_id, datastore_state, None, 0))

    def is_initialized(self) -> bool:
        for _ in self._iter_stored():
            return True
        return False

    def record_block(self, block: Block, shard_root: bytes) -> None:
        """Persist one applied block and the shard root it produced.

        The record is appended as three pieces whose join is
        ``canonical_encode(BlockRecord(block, shard_root))``: the constant the
        form opens with, the bytes the block owns, and the shard root under
        its key.  Every server persisting the same delivered block appends the
        same block bytes object, and nothing is spliced for the record.  A
        block that leaves the shard's root object as it was appends the last
        root piece again.
        """
        if shard_root is not self._last_root:
            self._last_root = shard_root
            self._last_root_piece = _SHARD_ROOT_KEY + canonical_encode(shard_root)
        self._append(BlockRecord.WIRE_PREFIX, block.wire_bytes(), self._last_root_piece)

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
        replacing the journal contents.  A retained record is kept as it was
        stored, not re-encoded from what was read: the reader accepts only
        bytes that re-encode to themselves.
        """
        retained = [
            pieces
            for pieces, record in self._read_records()
            if type(record) is BlockRecord and record.block.height > checkpoint.height
        ]
        snapshot = _snapshot(server_id, datastore_state, checkpoint, next_height)
        self._replace([(snapshot,)] + retained)

    # -- loading ---------------------------------------------------------------

    def _read_records(self) -> Iterator[Tuple[Pieces, Union[BlockRecord, SnapshotRecord]]]:
        """Every stored record beside what its payload encodes."""
        for index, pieces in enumerate(self._iter_stored()):
            try:
                record = _read_record(b"".join(pieces))
            except ValidationError as exc:
                raise RecoveryError(f"corrupt state-store record {index}: {exc}") from None
            yield pieces, record

    def load(self) -> PersistedState:
        """Read the journal into a :class:`PersistedState`.

        The *last* snapshot record wins (compaction rewrites the journal, so
        normally there is exactly one); block records after it are returned
        in journal order.
        """
        state: Optional[PersistedState] = None
        for index, (_, record) in enumerate(self._read_records()):
            if type(record) is SnapshotRecord:
                state = PersistedState(
                    server_id=record.server_id,
                    datastore_state={
                        "multi_versioned": record.multi_versioned,
                        "items": record.items,
                    },
                    checkpoint=record.checkpoint,
                    snapshot_next_height=record.next_height,
                )
            elif state is None:
                raise RecoveryError(
                    f"state-store record {index} is a block record before any snapshot"
                )
            else:
                state.blocks.append((record.block, record.shard_root))
        if state is None:
            raise RecoveryError("state store holds no snapshot; nothing to recover from")
        return state

    def close(self) -> None:  # pragma: no cover - only FileStateStore needs it
        pass


def _snapshot(
    server_id: str, datastore_state: Dict, checkpoint: Optional[Checkpoint], next_height: int
) -> bytes:
    """The snapshot record of an :meth:`DataStore.export_state` dump, encoded."""
    return canonical_encode(
        SnapshotRecord(
            server_id=server_id,
            next_height=next_height,
            multi_versioned=datastore_state["multi_versioned"],
            items=datastore_state["items"],
            checkpoint=checkpoint,
        )
    )


class MemoryStateStore(StateStore):
    """Journal in a list of encoded records (simulated durable storage).

    A record is kept as the pieces it was appended as -- bytes, never objects
    -- so the journals of every server that persisted one delivered block
    reference that block's one bytes object; a record is joined only when it
    is read.
    """

    def __init__(self) -> None:
        self._records: List[Pieces] = []

    def _append(self, *pieces: bytes) -> None:
        self._records.append(pieces)

    def _replace(self, records: List[Pieces]) -> None:
        self._records = list(records)

    def _iter_stored(self) -> Iterable[Pieces]:
        return iter(list(self._records))

    def size_bytes(self) -> int:
        return sum(len(piece) for pieces in self._records for piece in pieces)


#: Frame header: payload length + CRC32 of the payload.
_FRAME_HEADER = struct.Struct(">II")


def _write_frame(handle, pieces: Pieces) -> None:
    """Write the frame whose payload is the join of ``pieces``, without joining them."""
    crc = 0
    for piece in pieces:
        crc = zlib.crc32(piece, crc)
    handle.write(_FRAME_HEADER.pack(sum(map(len, pieces)), crc))
    handle.writelines(pieces)


class FileStateStore(StateStore):
    """Append-only write-ahead log file with CRC framing and atomic compaction.

    Each record is framed as ``length || crc32 || payload``, the payload
    written as the pieces it was appended as and its CRC computed over them
    in turn, so no record is joined to be written.  Loading stops
    silently at the first truncated or CRC-corrupt frame: that is the frame a
    crash interrupted, and everything before it is intact by construction.
    A read that stops there cuts the file back to the last intact frame (and
    fsyncs the cut), so the next append follows that frame instead of
    landing behind bytes no later load reads past.
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

    def _append(self, *pieces: bytes) -> None:
        _write_frame(self._handle, pieces)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def _replace(self, records: List[Pieces]) -> None:
        """Write the new journal beside the old one, then rename it over it.

        The live handle is swapped only once the rename has happened (POSIX
        replaces a file that is open), so a compaction that fails at any step
        leaves the old journal in place and appendable, and no ``<path>.tmp``.
        """
        tmp_path = self.path + ".tmp"
        try:
            with open(tmp_path, "wb") as tmp:
                for pieces in records:
                    _write_frame(tmp, pieces)
                tmp.flush()
                os.fsync(tmp.fileno())
            os.replace(tmp_path, self.path)
        except OSError:
            if os.path.exists(tmp_path):
                os.remove(tmp_path)
            raise
        previous, self._handle = self._handle, open(self.path, "ab")
        previous.close()

    def _iter_stored(self) -> Iterable[Pieces]:
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
            yield (payload,)
            offset = end
        if offset < len(data):
            self._handle.truncate(offset)
            os.fsync(self._handle.fileno())

    def size_bytes(self) -> int:
        self._handle.flush()
        return os.path.getsize(self.path)

    def close(self) -> None:
        self._handle.close()
