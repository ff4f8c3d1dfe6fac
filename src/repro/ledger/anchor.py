"""Epoch anchors: the thin chain the sharded ordering service seals at each merge.

A sharded ordering service (:mod:`repro.core.sequencing`) finalizes
single-shard blocks independently per shard.  Whenever the shards merge (a
cross-shard block arrives, or the stream is flushed), the service seals an
:class:`EpochAnchor` recording, for every ordering shard, how many blocks
that shard has contributed and the head of its per-shard hash chain, plus
the global-height interval the epoch covers and the hash of the previous
anchor -- a second, much thinner hash chain over *epochs*.

The per-shard chain folds each finalized block's *group body digest* -- the
exact digest the group co-signed -- so an anchor commits (transitively) to
every co-signed block body in its epoch without re-serialising any of them.
A sequencer that reordered, dropped, or invented blocks inside an epoch
cannot produce a matching anchor chain (collision-resistance of SHA-256).

The chain is the service's own report, kept by the service alone: no server
receives a copy, and ``FidesSystem.audit`` hands the service's chain to the
auditor.  An accepted chain is a function of the replicated, co-signed log,
the shard map and the epochs' end heights, so it adds nothing to what the
log already proves (DESIGN.md section 5); it stays while a benchmark
workload exports it.

This module is the one place that says what makes an anchor chain
acceptable, as two rules: the link rule (:func:`verify_anchor_link`: an
anchor directly extends the one before it) and the replay rule
(:func:`verify_anchor_chain`: the link rule over the whole chain, then the
chain vouches for a log's whole per-shard order, up to the log's head).
The auditor calls the replay rule, and the ordering service's self-check
replays its stream through the same fold (:class:`ShardChains`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.common.errors import ValidationError
from repro.common.wire import BYTES, INT, list_of, wire_form
from repro.crypto.hashing import EMPTY_HASH, hash_concat
from repro.ledger.block import Block
from repro.ledger.log import TransactionLog

#: Chain head of a shard that has not yet contributed any block.
GENESIS_SHARD_HEAD = EMPTY_HASH

#: Previous-anchor hash of the first anchor in a chain.
GENESIS_ANCHOR_HASH = EMPTY_HASH


def fold_shard_head(head: bytes, block: Block) -> bytes:
    """Extend one shard's chain head with one finalized block.

    The fold input is :meth:`Block.group_body_digest` -- chain-metadata-free
    and exactly what the group co-signed -- so the per-shard chain is
    invariant under the global re-chaining the sequencer performs at
    finalize time.
    """
    return hash_concat(b"shard-chain", head, block.group_body_digest())


@wire_form(
    ("epoch", INT),
    ("start_height", INT),
    ("end_height", INT),
    ("shard_heights", list_of(INT)),
    ("shard_heads", list_of(BYTES)),
    ("previous", BYTES),
)
@dataclass(frozen=True, slots=True)
class EpochAnchor:
    """One sealed ordering epoch (DESIGN.md section 5).

    ``shard_heights[s]`` / ``shard_heads[s]`` are shard ``s``'s cumulative
    block count and chain head *at the end* of this epoch; ``start_height``
    (inclusive) and ``end_height`` (exclusive) bound the global heights the
    epoch covers.
    """

    epoch: int
    start_height: int
    end_height: int
    shard_heights: Tuple[int, ...]
    shard_heads: Tuple[bytes, ...]
    previous: bytes

    def __post_init__(self) -> None:
        object.__setattr__(self, "shard_heights", tuple(self.shard_heights))
        object.__setattr__(self, "shard_heads", tuple(self.shard_heads))
        if len(self.shard_heights) != len(self.shard_heads):
            raise ValidationError("anchor shard_heights and shard_heads lengths differ")
        if self.end_height < self.start_height:
            raise ValidationError("anchor covers a negative global-height range")

    @property
    def num_shards(self) -> int:
        return len(self.shard_heights)

    def anchor_hash(self) -> bytes:
        parts: List[bytes] = [
            b"epoch-anchor",
            str(self.epoch).encode("ascii"),
            str(self.start_height).encode("ascii"),
            str(self.end_height).encode("ascii"),
            self.previous,
        ]
        for height, head in zip(self.shard_heights, self.shard_heads):
            parts.append(str(height).encode("ascii"))
            parts.append(head)
        return hash_concat(*parts)


def verify_anchor_link(anchor: EpochAnchor, previous: Optional[EpochAnchor]) -> str:
    """The link rule: "" if ``anchor`` directly extends ``previous`` (``None``:
    genesis) -- the next epoch, starting at its end height, carrying its
    hash -- else why not."""
    if previous is None:
        epoch, height, previous_hash = 0, 0, GENESIS_ANCHOR_HASH
    else:
        epoch, height = previous.epoch + 1, previous.end_height
        previous_hash = previous.anchor_hash()
    if anchor.epoch != epoch:
        return f"anchor epoch {anchor.epoch} != expected {epoch}"
    if anchor.start_height != height:
        return f"anchor {anchor.epoch} starts at height {anchor.start_height}, expected {height}"
    if anchor.previous != previous_hash:
        return f"anchor {anchor.epoch} does not extend the previous anchor"
    return ""


class ShardChains:
    """Every ordering shard's chain height and head, folded one block at a time."""

    __slots__ = ("heights", "heads")

    def __init__(self, heights: Sequence[int], heads: Sequence[bytes]) -> None:
        self.heights = list(heights)
        self.heads = list(heads)

    @classmethod
    def genesis(cls, num_shards: int) -> "ShardChains":
        return cls([0] * num_shards, [GENESIS_SHARD_HEAD] * num_shards)

    def fold(self, block: Block, shards: Sequence[int]) -> None:
        """Extend the chain of each of ``shards`` with ``block``."""
        for shard in shards:
            self.heights[shard] += 1
            self.heads[shard] = fold_shard_head(self.heads[shard], block)

    def matches(self, heights: Sequence[int], heads: Sequence[bytes]) -> bool:
        return tuple(self.heights) == tuple(heights) and tuple(self.heads) == tuple(heads)


def verify_anchor_chain(
    anchors: Sequence[EpochAnchor],
    log: TransactionLog,
    num_shards: int,
    shards_of: Callable[[Block], Sequence[int]],
) -> Tuple[str, Optional[int]]:
    """The replay rule: ``("", None)`` if ``anchors`` vouch for ``log``, else
    ``(reason, block_height)``.

    The link rule holds throughout (a malformed chain has no height).  One
    pass folds the log's blocks by global height, and each anchor must match
    the fold at its end height (else reported there; an anchor past the
    log's end is reported at the log's height).  The chain must end at the
    log's height (the coverage clause; reported where the chain stops).  A
    checkpoint-truncated log is folded from the state of the first anchor
    ending at or above its base: the blocks below are the checkpoint's to
    vouch for.  ``shards_of`` maps a block to its ordering shards from its
    recorded group, never from the sequencer's bookkeeping.
    """
    previous = None
    for anchor in anchors:
        reason = verify_anchor_link(anchor, previous)
        if reason:
            return f"epoch-anchor chain is malformed: {reason}", None
        previous = anchor
    blocks, base = log.blocks, log.base_height
    folded, chains = 0, ShardChains.genesis(num_shards)
    if base > 0:
        boundary = next((a for a in anchors if a.end_height >= base), None)
        if boundary is None:
            folded = log.height  # every anchor ends below the retained blocks
        else:
            folded = boundary.end_height
            if boundary.num_shards == num_shards:  # else it fails its own comparison
                chains = ShardChains(boundary.shard_heights, boundary.shard_heads)
    for anchor in anchors:
        if anchor.end_height > log.height:
            return (
                f"anchor {anchor.epoch} covers heights up to {anchor.end_height} "
                f"but the reference log ends at {log.height}",
                log.height,
            )
        if anchor.end_height < folded:
            continue
        while folded < anchor.end_height:
            block = blocks[folded - base]
            chains.fold(block, shards_of(block))
            folded += 1
        if not chains.matches(anchor.shard_heights, anchor.shard_heads):
            return (
                f"anchor {anchor.epoch} disagrees with the per-shard chains replayed "
                f"from the reference log at height {anchor.end_height}",
                anchor.end_height,
            )
    end = anchors[-1].end_height if anchors else 0
    if end != log.height:
        return (
            f"the anchor chain ends at height {end} but the reference log reaches "
            f"{log.height}: no anchor vouches for the blocks above it",
            end,
        )
    return "", None
