"""Log checkpointing: bounding the storage cost of the tamper-proof log.

Section 3.3 of the paper notes that "optimizations such as checkpointing can
be used to minimize the log storage space at each server".  This module
implements that optimisation in the spirit of Fides: a checkpoint must itself
be *auditable*, so it is a collectively signed summary of a log prefix rather
than a bare truncation.

A :class:`Checkpoint` captures, for a prefix of the log:

* the height and hash of the last block covered (so the remaining log chains
  onto the checkpoint exactly like it chained onto that block);
* the Merkle root of every shard as of that block (so per-version datastore
  audits can restart from the checkpoint instead of block 0);
* the largest commit timestamp covered (so timestamp-ordering checks keep
  working across the boundary); and
* a collective signature by all servers over all of the above.

``build_checkpoint`` / ``cosign_checkpoint`` create and sign a checkpoint,
and ``TransactionLog`` prefixes can then be dropped with
:func:`apply_checkpoint`.  There is one verifier of a truncated copy,
``TransactionLog.verify(..., checkpoint=...)``: the checkpoint's co-sign and
boundary rules live beside the block rules in :mod:`repro.ledger.log`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional

from repro.common.errors import ValidationError
from repro.common.timestamps import Timestamp
from repro.common.wire import BYTES, INT, ROOTS, TIMESTAMP, nested, optional, wire_form
from repro.crypto.cosi import CollectiveSignature, cosign
from repro.crypto.hashing import hash_concat
from repro.crypto.keys import KeyPair
from repro.ledger.block import Block
from repro.ledger.log import TransactionLog, checkpoint_covers


@wire_form(
    ("height", INT),
    ("head_hash", BYTES),
    ("shard_roots", ROOTS),
    ("latest_commit_ts", TIMESTAMP),
    ("transactions_covered", INT),
    ("cosign", optional(nested(CollectiveSignature))),
)
@dataclass(frozen=True, slots=True)
class Checkpoint:
    """A collectively signed summary of a log prefix."""

    #: Height of the last block covered by this checkpoint.
    height: int
    #: ``block_hash()`` of that block; the first retained block must point at it.
    head_hash: bytes
    #: Merkle root of each shard as of the covered prefix (server id -> root).
    shard_roots: Mapping[str, bytes]
    #: Largest commit timestamp covered by the prefix.
    latest_commit_ts: Timestamp
    #: Number of transactions summarised (informational).
    transactions_covered: int
    #: Collective signature of all servers over the digest of the above.
    cosign: Optional[CollectiveSignature] = None

    def digest(self) -> bytes:
        """The byte string the servers collectively sign."""
        parts = [
            str(self.height).encode("ascii"),
            self.head_hash,
            str(self.transactions_covered).encode("ascii"),
            str(self.latest_commit_ts.counter).encode("ascii"),
            self.latest_commit_ts.client_id.encode("utf-8"),
        ]
        for server_id, root in sorted(self.shard_roots.items()):
            parts.append(server_id.encode("utf-8"))
            parts.append(root)
        return hash_concat(*parts)

    def with_cosign(self, cosign: CollectiveSignature) -> "Checkpoint":
        return Checkpoint(
            height=self.height,
            head_hash=self.head_hash,
            shard_roots=dict(self.shard_roots),
            latest_commit_ts=self.latest_commit_ts,
            transactions_covered=self.transactions_covered,
            cosign=cosign,
        )


def build_checkpoint(
    log: TransactionLog,
    shard_roots: Mapping[str, bytes],
    previous: Optional[Checkpoint] = None,
) -> Checkpoint:
    """Summarise the full current contents of ``log`` into an (unsigned) checkpoint.

    ``shard_roots`` are the current Merkle roots of every shard (each server
    contributes its own root; the coordinator aggregates them, exactly like
    the vote phase of TFCommit aggregates per-shard roots into a block).

    For a log already truncated under an earlier checkpoint, pass it as
    ``previous`` so the transaction count and the commit-timestamp frontier
    accumulate across checkpoints instead of restarting at the truncation
    boundary.
    """
    if len(log) == 0:
        raise ValidationError("cannot checkpoint an empty log")
    if log.base_height > 0:
        if previous is None:
            raise ValidationError(
                "checkpointing an already-truncated log needs the previous checkpoint"
            )
        if not checkpoint_covers(previous, log.base_height, log.base_hash):
            raise ValidationError(
                "previous checkpoint does not cover this log's truncation boundary"
            )
    last_block = log.last_block()
    latest_ts = previous.latest_commit_ts if previous is not None else Timestamp.zero()
    transactions = previous.transactions_covered if previous is not None else 0
    for block in log:
        if block.is_commit:
            transactions += len(block.transactions)
            if block.max_commit_ts > latest_ts:
                latest_ts = block.max_commit_ts
    return Checkpoint(
        height=last_block.height,
        head_hash=last_block.block_hash(),
        shard_roots=dict(shard_roots),
        latest_commit_ts=latest_ts,
        transactions_covered=transactions,
    )


def cosign_checkpoint(checkpoint: Checkpoint, keypairs: Mapping[str, KeyPair]) -> Checkpoint:
    """Have every server co-sign the checkpoint (in-process CoSi round)."""
    return checkpoint.with_cosign(cosign(checkpoint.digest(), keypairs))


def apply_checkpoint(log: TransactionLog, checkpoint: Checkpoint) -> List[Block]:
    """Drop every block covered by ``checkpoint`` from ``log``.

    Returns the blocks removed, oldest first.  The retained suffix still chains
    correctly: its first block's ``previous_hash`` equals
    ``checkpoint.head_hash``.  Blocks are addressed by *global height*, so
    repeated checkpoints compose: applying a newer checkpoint to an
    already-truncated log drops exactly the newly covered blocks, and a
    checkpoint at or below the current truncation boundary is a no-op.
    """
    if checkpoint.cosign is None:
        raise ValidationError("refusing to apply an unsigned checkpoint")
    if checkpoint.height < log.base_height:
        return []
    if checkpoint.height >= log.height:
        raise ValidationError("checkpoint covers blocks this log does not have")
    covered_block = log.block_at_height(checkpoint.height)
    if covered_block is None or covered_block.block_hash() != checkpoint.head_hash:
        raise ValidationError("checkpoint head hash does not match the local log")
    return log.drop_prefix(checkpoint.height + 1 - log.base_height)

