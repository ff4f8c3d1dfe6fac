"""Epoch anchors: the thin chain that stitches per-shard order back together.

A sharded ordering service (:mod:`repro.core.sequencing`) finalizes
single-shard blocks independently per shard, so no single sequencer sees --
or vouches for -- the whole global log.  What restores the auditor's
global-log verification is a second, much thinner hash chain over *epochs*:
whenever the shards merge (a cross-shard block arrives, or the stream is
flushed), the service seals an :class:`EpochAnchor` recording, for every
ordering shard, how many blocks that shard has contributed and the head of
its per-shard hash chain, plus the global-height interval the epoch covers
and the hash of the previous anchor.

The per-shard chain folds each finalized block's *group body digest* -- the
exact digest the group co-signed -- so an anchor commits (transitively) to
every co-signed block body in its epoch without re-serialising any of them.
The auditor replays the reference log through the same fold
(:func:`replay_shard_chains`) and compares; a sequencer that reordered,
dropped, or invented blocks inside an epoch cannot produce a matching anchor
chain (collision-resistance of SHA-256), which is the trust argument of
DESIGN.md section 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.common.errors import ValidationError
from repro.common.wire import BYTES, INT, list_of, wire_form
from repro.crypto.hashing import EMPTY_HASH, hash_concat
from repro.ledger.block import Block

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
@dataclass(frozen=True)
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


def verify_anchor_chain(anchors: Sequence[EpochAnchor]) -> Optional[str]:
    """Check the anchors form one gapless hash chain; return a reason or None."""
    previous_hash = GENESIS_ANCHOR_HASH
    next_epoch = 0
    next_height = 0
    for anchor in anchors:
        if anchor.epoch != next_epoch:
            return f"anchor epoch {anchor.epoch} != expected {next_epoch}"
        if anchor.start_height != next_height:
            return (
                f"anchor {anchor.epoch} starts at height {anchor.start_height}, "
                f"expected {next_height}"
            )
        if anchor.previous != previous_hash:
            return f"anchor {anchor.epoch} does not extend the previous anchor"
        previous_hash = anchor.anchor_hash()
        next_epoch = anchor.epoch + 1
        next_height = anchor.end_height
    return None


def replay_shard_chains(
    blocks: Sequence[Block],
    shards_for_block: Callable[[Block], Sequence[int]],
    num_shards: int,
) -> Tuple[Tuple[int, ...], Tuple[bytes, ...]]:
    """Recompute every shard's (height, head) from a globally ordered prefix.

    ``shards_for_block`` maps a block to the ordering shards it involves --
    derived from the block's recorded group and the shard mapping, never from
    sequencer-provided metadata, so the replay is an independent check.
    """
    heights = [0] * num_shards
    heads = [GENESIS_SHARD_HEAD] * num_shards
    for block in blocks:
        for shard in shards_for_block(block):
            if not 0 <= shard < num_shards:
                raise ValidationError(f"block maps to unknown ordering shard {shard}")
            heights[shard] += 1
            heads[shard] = fold_shard_head(heads[shard], block)
    return tuple(heights), tuple(heads)
