"""The tamper-proof transaction log kept by every server.

The log is "a linked-list of transaction blocks linked using cryptographic
hash pointers" (Section 3.1).  Every server appends the same co-signed block
after a successful TFCommit round, producing a globally replicated log.

This module is also the one place that says what makes a block or a
checkpoint acceptable, as three rules every acceptor calls: the co-sign rule
(:func:`verify_block_cosign`, :func:`verify_checkpoint`), the chain rule
(:func:`verify_block_link`) and the boundary rule (:func:`checkpoint_covers`).
:func:`verify_block` is the chain rule and then the co-sign rule, for an
acceptor that knows the head a block must extend.

Besides the honest operations (append, iterate, verify) this module exposes
*tampering helpers* -- ``tamper_replace`` and ``truncate`` --
used by the fault-injection tests to produce exactly the malicious logs of
Lemmas 6 and 7 so the auditor's detection can be exercised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, Iterator, List, Mapping, Optional, Sequence

from repro.common.errors import ValidationError
from repro.crypto.cosi import CollectiveSignature, cosi_verify
from repro.crypto.keys import PublicKey
from repro.ledger.block import Block, genesis_previous_hash


@dataclass(frozen=True, slots=True)
class LogVerificationResult:
    """Outcome of verifying one server's log copy.

    ``valid_prefix_length`` is the number of leading blocks that verify; the
    first invalid block (if any) is reported with the reason.
    """

    valid: bool
    length: int
    valid_prefix_length: int
    first_invalid_height: Optional[int] = None
    reason: str = ""


def _cosign_holds(
    cosign, digest: bytes, public_keys: Dict[str, PublicKey], verdicts: Optional[dict]
) -> bool:
    """``cosi_verify(cosign, digest, public_keys)``, answered once per distinct input.

    ``verdicts`` belongs to one verification call (:func:`verify_copies`), for
    which the key directory is fixed, so the key is the rest of what the check
    reads: the digest, the challenge, the response and the signer ids.  A
    block's :meth:`~repro.ledger.block.Block.block_hash` would not do -- it
    covers ``challenge || response`` but not the signer ids.
    """
    if verdicts is None or not isinstance(cosign, CollectiveSignature):
        return cosi_verify(cosign, digest, public_keys)
    key = (digest, cosign.challenge, cosign.response, tuple(cosign.signer_ids))
    verdict = verdicts.get(key)
    if verdict is None:
        verdict = verdicts[key] = cosi_verify(cosign, digest, public_keys)
    return verdict


def verify_block_cosign(
    block: Block,
    public_keys: Dict[str, PublicKey],
    servers: Collection[str],
    verdicts: Optional[dict] = None,
) -> str:
    """The co-sign rule for a block; returns "" or a failure reason.

    Every acceptor of a block -- full-log verification, the decision
    handler, recovery catch-up, and the view change's frontier certificate
    -- runs this one check:

    * a collective signature must be present and verify over the block's
      signing digest (group body digest for dynamic-group blocks);
    * the signer set must be *exactly* the block's: its recorded group for a
      dynamic-group block, the cluster's ``servers`` for a classic one -- a
      subset could not have run the round, and extra signers mean the
      recorded membership was doctored.  ``cosi_verify`` checks only the
      signers the signature itself lists, so without this one server could
      co-sign a block alone.

    The auditor tells a forged co-sign from plain tampering by the word
    "signature" in a reason, so the reasons below are part of its contract.
    ``verdicts`` is the co-sign table of the :func:`verify_copies` call this
    check runs in, if any.
    """
    if block.cosign is None:
        return "missing collective signature"
    if block.group is not None and set(block.cosign.signer_ids) != set(block.group):
        return "group block signer set does not match its recorded group"
    if not _cosign_holds(block.cosign, block.signing_digest(), public_keys, verdicts):
        return "invalid collective signature"
    if block.group is None and set(block.cosign.signer_ids) != set(servers):
        return "collective signature of a classic block is not by exactly the cluster's servers"
    return ""


def verify_checkpoint(
    checkpoint,
    public_keys: Dict[str, PublicKey],
    servers: Collection[str],
    verdicts: Optional[dict] = None,
) -> bool:
    """The co-sign rule for a checkpoint: by exactly the cluster's ``servers``, over its digest."""
    return (
        checkpoint.cosign is not None
        and set(checkpoint.cosign.signer_ids) == set(servers)
        and _cosign_holds(checkpoint.cosign, checkpoint.digest(), public_keys, verdicts)
    )


def verify_block_link(block: Block, height: int, head_hash: bytes) -> str:
    """The chain rule: "" if ``block`` extends ``(height, head_hash)``, else why not.

    ``height`` is the height the next block must carry and ``head_hash`` the
    hash it must point at.  The reasons never say "signature" (see
    :func:`verify_block_cosign`).
    """
    if block.height != height:
        return f"block height {block.height} does not extend log height {height}"
    if block.previous_hash != head_hash:
        return "block previous_hash does not match the log head"
    return ""


def verify_block(
    block: Block,
    height: int,
    head_hash: bytes,
    public_keys: Dict[str, PublicKey],
    servers: Collection[str],
    verdicts: Optional[dict] = None,
) -> str:
    """The chain rule, then the co-sign rule: "" if ``block`` may follow
    ``(height, head_hash)``, else the first rule's reason."""
    return verify_block_link(block, height, head_hash) or verify_block_cosign(
        block, public_keys, servers, verdicts
    )


def checkpoint_covers(checkpoint, base_height: int, base_hash: bytes) -> bool:
    """The boundary rule: ``checkpoint`` ends exactly where a log truncated at
    ``(base_height, base_hash)`` begins."""
    return checkpoint.height + 1 == base_height and checkpoint.head_hash == base_hash


def verify_copies(
    logs: Mapping[str, "TransactionLog"],
    public_keys: Dict[str, PublicKey],
    servers: Collection[str],
    checkpoints: Mapping[str, object],
) -> Dict[str, LogVerificationResult]:
    """Verify every server's log copy, each against its own checkpoint.

    Every copy gets its own chain, height and signer-set checks over its own
    signing digests; only the group arithmetic is shared, through one
    co-sign table that lives for this call.  In an honest run every copy
    holds the same blocks, so each distinct co-sign is checked once rather
    than once per copy, and a second call starts from an empty table.
    """
    verdicts: Dict[tuple, bool] = {}
    return {
        server: log._verify(public_keys, servers, checkpoints.get(server), verdicts)
        for server, log in logs.items()
    }


class TransactionLog:
    """One server's copy of the globally replicated block log.

    A log can be *checkpoint-truncated* (Section 3.3): ``base_height`` blocks
    at the front were dropped under a collectively signed checkpoint whose
    head hash is ``base_hash``.  Heights stay **global**: the next block
    appended to a truncated log carries ``base_height + len(blocks)``, so
    truncation is invisible to the commit protocol and to hash chaining.
    Indexing (``log[i]``, iteration) remains positional over the *retained*
    blocks; :meth:`block_at_height` maps a global height to its block.
    """

    def __init__(
        self,
        blocks: Optional[Sequence[Block]] = None,
        base_height: int = 0,
        base_hash: Optional[bytes] = None,
    ) -> None:
        if base_height < 0:
            raise ValidationError("base_height must be >= 0")
        if base_height > 0 and base_hash is None:
            raise ValidationError("a truncated log needs the checkpoint head hash")
        self._blocks: List[Block] = list(blocks) if blocks else []
        self._base_height = base_height
        self._base_hash = base_hash if base_hash is not None else genesis_previous_hash()

    # -- honest operations ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self._blocks)

    def __getitem__(self, index: int) -> Block:
        return self._blocks[index]

    @property
    def blocks(self) -> List[Block]:
        return list(self._blocks)

    @property
    def base_height(self) -> int:
        """Number of leading blocks dropped under a checkpoint (0 = full log)."""
        return self._base_height

    @property
    def base_hash(self) -> bytes:
        """Hash the first retained block chains onto (genesis or checkpoint head)."""
        return self._base_hash

    @property
    def head_hash(self) -> bytes:
        """Hash pointer to be embedded in the next block."""
        if not self._blocks:
            return self._base_hash
        return self._blocks[-1].block_hash()

    @property
    def height(self) -> int:
        """Global height the *next* block should carry."""
        return self._base_height + len(self._blocks)

    def block_at_height(self, height: int) -> Optional[Block]:
        """The retained block carrying global ``height`` (None if dropped/absent)."""
        index = height - self._base_height
        if 0 <= index < len(self._blocks):
            return self._blocks[index]
        return None

    def last_block(self) -> Optional[Block]:
        return self._blocks[-1] if self._blocks else None

    def append(self, block: Block, verify_link: bool = True) -> None:
        """Append a finalised block.

        A correct server checks the hash pointer before appending; fault
        injection can disable the check to model sloppy/malicious servers.
        """
        if verify_link:
            reason = verify_block_link(block, self.height, self.head_hash)
            if reason:
                raise ValidationError(reason)
            if block.cosign is None:
                raise ValidationError("refusing to append a block without a collective signature")
        self._blocks.append(block)

    def copy(self) -> "TransactionLog":
        return TransactionLog(
            self._blocks, base_height=self._base_height, base_hash=self._base_hash
        )

    # -- verification ---------------------------------------------------------

    def verify(
        self, public_keys: Dict[str, PublicKey], servers: Collection[str], checkpoint=None
    ) -> LogVerificationResult:
        """Verify hash chaining and every block's collective signature.

        This is the procedure the auditor runs on each collected log copy to
        decide whether it is correct (Lemma 6) before picking the longest
        correct copy (Lemma 7).  ``servers`` is the cluster, whose every
        member must have co-signed a classic block and a checkpoint.  A
        checkpoint-truncated copy verifies only against its ``checkpoint``:
        the checkpoint's own co-sign must verify, its coverage must match the
        truncation boundary, and the retained suffix must chain onto its head
        hash.
        """
        return self._verify(public_keys, servers, checkpoint, {})

    def _verify(
        self,
        public_keys: Dict[str, PublicKey],
        servers: Collection[str],
        checkpoint,
        verdicts: dict,
    ) -> LogVerificationResult:
        if self._base_height > 0:
            if checkpoint is None:
                reason = "log is checkpoint-truncated but no checkpoint was presented"
            elif not verify_checkpoint(checkpoint, public_keys, servers, verdicts):
                # Wording deliberately avoids "signature": the auditor's
                # forged-block classifier keys on that word to refine a
                # *block*-level co-sign failure, and this failure is about
                # the checkpoint artifact, not any retained block.
                reason = "checkpoint cosign failed verification"
            elif not checkpoint_covers(checkpoint, self._base_height, self._base_hash):
                reason = "checkpoint does not cover this log's truncation boundary"
            else:
                reason = ""
            if reason:
                return LogVerificationResult(False, len(self._blocks), 0, self._base_height, reason)
        expected_prev = self._base_hash
        for index, block in enumerate(self._blocks):
            height = self._base_height + index
            reason = verify_block(block, height, expected_prev, public_keys, servers, verdicts)
            if reason:
                return LogVerificationResult(False, len(self._blocks), index, height, reason)
            expected_prev = block.block_hash()
        return LogVerificationResult(True, len(self._blocks), len(self._blocks))

    def is_prefix_of(self, other: "TransactionLog") -> bool:
        """True if this log's history is a (possibly equal) prefix of ``other``'s.

        Logs are compared by *global height*: every block both logs retain
        must be identical, and this log must not extend beyond ``other``.
        Heights only one side retains (checkpointed away on the other) are
        vouched for by that side's checkpoint and are not compared here.
        """
        if self.height > other.height:
            return False
        for block in self._blocks:
            theirs = other.block_at_height(block.height)
            if theirs is not None and theirs.block_hash() != block.block_hash():
                return False
        return True

    # -- tampering helpers (fault injection only) ------------------------------

    def tamper_replace(self, height: int, block: Block) -> None:
        """Replace the block at ``height`` without any checks (malicious)."""
        self._blocks[height] = block

    def truncate(self, keep: int) -> None:
        """Drop every block after the first ``keep`` blocks (tail omission)."""
        if keep < 0:
            raise ValidationError("cannot keep a negative number of blocks")
        del self._blocks[keep:]

    def drop_prefix(self, count: int) -> List[Block]:
        """Drop the first ``count`` retained blocks (checkpointing support).

        Unlike the tampering helpers this is an *honest* operation: it is only
        safe when the dropped prefix is covered by a collectively signed
        checkpoint (see :mod:`repro.ledger.checkpoint`).  The truncation
        boundary advances with the drop -- global heights, the head hash, and
        chaining of future appends are unaffected.  Returns the blocks
        removed, oldest first.
        """
        if count < 0:
            raise ValidationError("cannot drop a negative number of blocks")
        dropped = self._blocks[:count]
        if dropped:
            self._base_hash = dropped[-1].block_hash()
            self._base_height += len(dropped)
            del self._blocks[:count]
        return dropped

