"""Blocks of the tamper-proof log.

Each block stores exactly the fields of Table 1 of the paper:

=============  ==============================================================
``TxnId``      the commit timestamp(s) of the transaction(s) in the block
``R_set``      list of ``<id : value, rts, wts>`` read-set entries
``W_set``      list of ``<id : new_val, old_val, rts, wts>`` write-set entries
``sum roots``  the Merkle Hash Tree roots of the shards involved
``decision``   commit or abort
``h``          hash of the previous block
``co-sign``    a collective signature of the participants
=============  ==============================================================

A block can store multiple transactions (Section 4.6); the single-transaction
case used for exposition in the paper is simply a batch of size one.  The
collective signature covers the *body digest* -- every field except the
co-sign itself -- so any post-hoc modification of the block invalidates the
signature (Lemma 6).

Scaled deployments (Section 4.6, Figure 9) split block identity in two:

* the **group body** -- transactions, roots, decision, and the dynamic group
  that terminated them -- is what the group's members collectively sign
  (:meth:`Block.group_body_digest`);
* the **chain metadata** -- ``height`` and ``previous_hash`` -- is assigned
  later by the ordering service when it merges per-group blocks into the one
  global log, exactly as the paper's OrdServ "fills in the hash of the
  previous block".

A block produced by a dynamic group records the group in :attr:`Block.group`;
its :meth:`Block.signing_digest` is then the group body digest, so the
ordering service can re-chain the block without invalidating the co-sign,
while the hash pointers (:meth:`Block.block_hash`) still cover the full body
*including* the chain metadata, keeping the global log tamper-evident.
Classic single-coordinator blocks have ``group=None`` and sign the full body
digest as before.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from types import MappingProxyType
from typing import Mapping, Optional, Sequence, Tuple

from repro.common.errors import ValidationError
from repro.common.timestamps import Timestamp
from repro.common.types import ServerId
from repro.common.wire import (
    BYTES,
    ID_SET,
    INT,
    ROOTS,
    enum_of,
    kept,
    list_of,
    nested,
    optional,
    sub,
    wire_form,
)
from repro.crypto.cosi import CollectiveSignature
from repro.crypto.hashing import EMPTY_HASH, hash_concat
from repro.txn.transaction import Transaction


class BlockDecision(Enum):
    """The commit/abort decision recorded in a block."""

    COMMIT = "commit"
    ABORT = "abort"


@wire_form(
    sub(
        "body",
        ("height", INT),
        ("transactions", list_of(nested(Transaction))),
        ("roots", ROOTS),
        ("decision", enum_of(BlockDecision)),
        ("previous_hash", BYTES),
        ("group", optional(ID_SET)),
        ("view", INT),
    ),
    ("cosign", optional(nested(CollectiveSignature))),
    owns_bytes=True,
)
@dataclass(frozen=True)
class Block:
    """One entry of the tamper-proof log.

    ``roots`` maps each involved server to the Merkle root its shard would
    have with the block's transactions applied; for an aborted block at least
    one root is missing (Section 4.3.2).  It is a read-only mapping that
    compares equal to the plain dict it was built from.

    ``group`` is ``None`` for classic full-cluster blocks; for blocks
    terminated by a dynamic server group (Section 4.6) it records the group's
    members, and the collective signature covers the *group body digest*
    (which excludes the chain metadata the ordering service assigns later).

    ``view`` is the coordinator view the block was proposed in: 0 under the
    original coordinator, bumped by one per view change.  It is part of the
    signed body, so cohorts co-sign the view they voted in and a deposed
    coordinator cannot replay its old proposals into a newer view.

    A block owns its bytes, as a transaction does: every message that carries
    one block instance (``GET_VOTE``, ``DECISION``, the 32-way
    ``ORDERED_BLOCK``, a catch-up reply) and every server's journal record of
    it splice the same encoding (DESIGN.md section 6, "Who owns the bytes").
    """

    height: int
    transactions: Tuple[Transaction, ...]
    roots: Mapping[ServerId, bytes]
    decision: BlockDecision
    previous_hash: bytes
    cosign: Optional[CollectiveSignature] = None
    group: Optional[Tuple[ServerId, ...]] = None
    view: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "transactions", tuple(self.transactions))
        # Read-only: the kept bytes and digests describe these roots, so they
        # change only through ``dataclasses.replace``, like every other field.
        object.__setattr__(self, "roots", MappingProxyType(dict(self.roots)))
        if self.group is not None:
            object.__setattr__(self, "group", tuple(sorted(self.group)))
        if self.height < 0:
            raise ValidationError("block height must be >= 0")
        if self.view < 0:
            raise ValidationError("block view must be >= 0")

    # -- Table 1 accessors ----------------------------------------------------

    @property
    def txn_ids(self) -> Tuple[str, ...]:
        """The ``TxnId`` field: commit timestamps (stringified) of the batched txns."""
        return tuple(str(txn.commit_ts) for txn in self.transactions)

    @property
    def read_set(self):
        """The concatenated read sets of every transaction in the block."""
        return tuple(entry for txn in self.transactions for entry in txn.read_set)

    @property
    def write_set(self):
        """The concatenated write sets of every transaction in the block."""
        return tuple(entry for txn in self.transactions for entry in txn.write_set)

    @property
    def is_commit(self) -> bool:
        return self.decision is BlockDecision.COMMIT

    @property
    def max_commit_ts(self) -> Timestamp:
        """Largest commit timestamp in the block (used for log ordering checks)."""
        if not self.transactions:
            return Timestamp.zero()
        return max(txn.commit_ts for txn in self.transactions)

    def involved_servers(self) -> Tuple[ServerId, ...]:
        return tuple(sorted(self.roots))

    # -- hashing / signing ----------------------------------------------------

    @kept
    def body_digest(self) -> bytes:
        """The digest the participants collectively sign.

        Hashes each transaction's flat signing form
        (:meth:`Transaction.encoded`, which the transaction keeps) plus the
        block's own fields.  The 32 bytes are kept per block instance, beside
        its wire bytes -- every server hashes the block it received once,
        however many phases touch it.
        """
        return hash_concat(
            str(self.height).encode("ascii"), self.previous_hash, *self._group_body_parts()
        )

    def _group_body_parts(self) -> list:
        """The chain-independent fields, in canonical order."""
        parts = [self.decision.value.encode("ascii"), str(self.view).encode("ascii")]
        for member in self.group or ():
            parts.append(b"group:" + member.encode("utf-8"))
        for server_id, root in sorted(self.roots.items()):
            parts.append(server_id.encode("utf-8"))
            parts.append(root)
        for txn in self.transactions:
            parts.append(txn.encoded())
        return parts

    @kept
    def group_body_digest(self) -> bytes:
        """Digest of the chain-independent fields (Section 4.6).

        Excludes ``height`` and ``previous_hash``: in the scaled deployment
        those are assigned by the ordering service *after* the group co-signed
        the block, so the signature must not cover them.  It *does* cover the
        group membership, binding the signer set to the block.
        """
        return hash_concat(b"group-body", *self._group_body_parts())

    def signing_digest(self) -> bytes:
        """The digest the participants collectively sign.

        Classic full-cluster blocks sign the full body digest (chain metadata
        included); dynamic-group blocks sign the group body digest so the
        ordering service can re-chain them without breaking the co-sign.
        """
        if self.group is not None:
            return self.group_body_digest()
        return self.body_digest()

    def round_key(self) -> tuple:
        """Stable identifier of the TFCommit round that produces this block.

        Cohorts key their per-round state by it.  Classic blocks are keyed by
        height (one round per log position); group blocks cannot be -- their
        height is a placeholder until the ordering service assigns the real
        one -- so they are keyed by the transactions they terminate.  The view
        is part of the key, so a successor coordinator re-proposing a stalled
        round in view ``v+1`` starts a *fresh* round rather than colliding
        with the deposed coordinator's armed round state.
        """
        if self.group is not None:
            return ("group", self.view) + tuple(
                sorted(txn.txn_id for txn in self.transactions)
            )
        return ("height", self.height, self.view)

    @kept
    def block_hash(self) -> bytes:
        """Hash-pointer value used as the next block's ``previous_hash``, kept
        per instance: every recipient of a delivered block checks its chain.

        The pointer covers the body *and* the collective signature's
        ``challenge || response``, so that replacing a signature (even with
        another valid-looking one) breaks the chain.  It does not cover the
        signature's ``signer_ids``: a block with a signer dropped keeps its
        pointer and fails only its co-sign check.
        """
        cosign_bytes = self.cosign.encode() if self.cosign is not None else b""
        return hash_concat(self.body_digest(), cosign_bytes)

    # -- builders -------------------------------------------------------------

    def with_decision(self, decision: BlockDecision, roots: Mapping[ServerId, bytes]) -> "Block":
        """Return a copy with the decision and the aggregated MHT roots filled in."""
        return replace(self, decision=decision, roots=dict(roots))

    def with_cosign(self, cosign: CollectiveSignature) -> "Block":
        """Return the finalised block carrying the collective signature."""
        return replace(self, cosign=cosign)


def make_partial_block(
    height: int,
    transactions: Sequence[Transaction],
    previous_hash: bytes,
    view: int = 0,
) -> Block:
    """The partially filled block the coordinator builds in TFCommit phase 1.

    Contains the commit timestamps, read/write sets, and the hash of the
    previous block; roots, decision, and co-sign are filled in later phases.
    """
    return Block(
        height=height,
        transactions=tuple(transactions),
        roots={},
        decision=BlockDecision.ABORT,
        previous_hash=previous_hash,
        view=view,
    )


def make_group_partial_block(
    transactions: Sequence[Transaction],
    group_members: Sequence[ServerId],
    view: int = 0,
) -> Block:
    """The partial block a *group* coordinator builds (Section 4.6).

    Chain metadata is a placeholder: the ordering service assigns the real
    height and previous-hash pointer when it merges the per-group streams,
    which is why the group co-signs :meth:`Block.group_body_digest` instead
    of the full body digest.
    """
    return Block(
        height=0,
        transactions=tuple(transactions),
        roots={},
        decision=BlockDecision.ABORT,
        previous_hash=EMPTY_HASH,
        group=tuple(sorted(group_members)),
        view=view,
    )


def genesis_previous_hash() -> bytes:
    """The ``previous_hash`` value of the first block in a log."""
    return EMPTY_HASH
