"""OrdServ: the one ordering service of the scaled deployment (DESIGN.md §5).

When different server groups terminate transactions concurrently, someone has
to merge their per-group blocks into the single, consistently ordered,
globally replicated log.  The paper (Section 4.6, Figure 9) abstracts this as
an ordering service that "atomically broadcasts a single stream of blocks"
and fills in the hash-of-previous-block pointers; it can be realised with
PBFT among the coordinators, with Kafka (as in Veritas), or with a
dependency-tracking scheme such as ParBlockchain.  :class:`OrderingService`
implements the abstraction directly, and it is built from *lanes*:

* Without a shard map there is one lane and every block goes through it --
  the classic sequencer.  Its ``reorder_window`` *w* lets up to *w* blocks
  float: once the lane holds more, it releases blocks (any whose pending
  predecessors it does not depend on -- a model-checker choice point) until
  *w* are left.  ``w = 0`` keeps submission order.
* With an :class:`OrderingShardMap` there is one lane per *ordering shard*
  (a range of servers).  A single-shard block buffers in its lane, which
  lands its whole backlog in submission order once ``epoch_max_blocks`` have
  piled up; a cross-shard block is a barrier: every lane drains (lane order
  is a choice point), the block finalizes, and an
  :class:`~repro.ledger.anchor.EpochAnchor` seals the per-shard hash chains
  against the global height range (see :mod:`repro.ledger.anchor` for the
  trust argument).  This moves the paper's scalability ceiling -- one
  sequencer every group block funnels through -- because lanes occupy
  separate timeline resources.

Why lane-local ordering is dependency-safe: a block's group is exactly the
set of servers storing its items, and ordering shards partition the servers.
Two single-shard blocks of *different* lanes therefore have disjoint server
sets, hence disjoint item sets, hence no data dependency and no group
overlap -- any interleaving of lanes is equivalent under the dependency rules
(item-conflict, commit-frontier, chain-at-aggregate).  Within a lane a block
is never released before a pending predecessor it depends on.  Everything a
cross-shard block could depend on lands before it, everything published
after it lands after it.

The contract the deployment relies on, whatever the lane settings:

* ``publish`` is idempotent per round identity (group membership + txn set)
  and returns ``False`` on a suppressed duplicate;
* the finalized stream is a single gapless hash chain -- the *n*-th delivered
  :class:`OrderedBlock` has ``global_height == n`` and extends the previous
  block's hash -- so servers, the auditor and the view-change machinery are
  oblivious to how the stream was produced;
* the stream never orders a block before another block it depends on when
  their groups overlap (``verify_dependency_order``);
* ``flush_conflicting(group)`` lands every floating block whose group
  overlaps ``group`` (plus whatever must precede those blocks) before
  returning, so a coordinator's next round reads a settled prefix;
* subscribers registered via ``subscribe`` see every finalized block, in
  stream order, exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, List, Mapping, Optional, Tuple

from repro.check.choices import choose
from repro.common.errors import ConfigurationError, ProtocolInvariantError
from repro.core.grouping import ServerGroup, dependency_between
from repro.crypto.hashing import EMPTY_HASH
from repro.ledger.anchor import (
    GENESIS_ANCHOR_HASH,
    GENESIS_SHARD_HEAD,
    EpochAnchor,
    fold_shard_head,
)
from repro.ledger.block import Block


@dataclass(frozen=True)
class OrderedBlock:
    """A block as finalised by the ordering service.

    ``shards`` names the ordering shards the block involved (empty without a
    shard map, where the stream has no shard structure); the deployment layer
    uses it to charge the delivery to per-shard timeline resources.
    ``sequence`` is the block's publication order, which dependent blocks
    of overlapping groups must keep in the stream.
    """

    global_height: int
    block: Block
    group: ServerGroup
    sequence: int
    shards: Tuple[int, ...] = field(default=())

    @property
    def block_hash(self) -> bytes:
        return self.block.block_hash()


@dataclass(frozen=True)
class OrderingShardMap:
    """Server → ordering-shard mapping over the deployment's servers.

    Server ids are sorted *as strings* and cut into ``num_shards`` runs of
    equal length; a group's ordering shards are the shards of its members.
    Up to ten servers a run is a contiguous server range and hence (the
    storage layer gives each server a contiguous item key range) a key
    range.  Beyond that it is not: ``"s10" < "s2"``, so with 32 servers over
    4 shards shard 0 is ``{s0, s1, s10, ..., s15}``.  Nothing depends on
    contiguity -- any partition of the servers is dependency-safe -- and the
    cut is pinned by the gated ``scaleout`` numbers, so it stays as it is.
    """

    shard_by_server: Mapping[str, int]
    num_shards: int

    @classmethod
    def for_servers(cls, server_ids: Iterable[str], num_shards: int) -> "OrderingShardMap":
        ordered = sorted(server_ids)
        if not ordered:
            raise ConfigurationError("ordering shard map needs at least one server")
        count = max(1, min(int(num_shards), len(ordered)))
        mapping = {
            server_id: (index * count) // len(ordered)
            for index, server_id in enumerate(ordered)
        }
        return cls(shard_by_server=mapping, num_shards=count)

    def shard_of(self, server_id: str) -> int:
        try:
            return self.shard_by_server[server_id]
        except KeyError:
            raise ConfigurationError(
                f"server {server_id!r} is not covered by the ordering shard map"
            ) from None

    def shards_of(self, members: Iterable[str]) -> Tuple[int, ...]:
        return tuple(sorted({self.shard_of(member) for member in members}))


@dataclass(eq=False)  # identity: a block sits in at most one lane buffer
class _PendingBlock:
    block: Block
    group: ServerGroup
    sequence: int
    shards: Tuple[int, ...]

    def feeds_into(self, later: "_PendingBlock") -> bool:
        """Whether ``later`` must not be finalised before this block."""
        return self.group.overlaps(later.group) and dependency_between(
            self.block.transactions, later.block.transactions
        )


class _Lane:
    """One sequencer lane: a submission-ordered buffer and its hash chain."""

    __slots__ = ("index", "buffer", "height", "head")

    def __init__(self, index: int) -> None:
        self.index = index
        self.buffer: List[_PendingBlock] = []
        self.height = 0
        self.head: bytes = GENESIS_SHARD_HEAD


class OrderingService:
    """A dependency-preserving atomic broadcast of per-group blocks.

    A lane holds blocks until it has ``epoch_max_blocks`` (default: one more
    than the window) and then releases down to ``reorder_window``.  The two
    settings in use are :func:`single_sequencer` -- one lane, window *w* --
    and :func:`sharded_sequencer` -- a lane per ordering shard, window 0.
    """

    def __init__(
        self,
        reorder_window: int = 0,
        shard_map: Optional[OrderingShardMap] = None,
        epoch_max_blocks: Optional[int] = None,
    ) -> None:
        self._map = shard_map
        self._lanes = [_Lane(index) for index in range(shard_map.num_shards if shard_map else 1)]
        self._low = max(0, int(reorder_window))
        self._high = self._low + 1 if epoch_max_blocks is None else max(1, int(epoch_max_blocks))
        self._ordered: List[OrderedBlock] = []
        self._subscribers: List[Callable[[OrderedBlock], None]] = []
        self._anchor_subscribers: List[Callable[[EpochAnchor], None]] = []
        self._anchors: List[EpochAnchor] = []
        #: Round identities already accepted (pending or finalised); see
        #: :meth:`round_identity`.
        self._identities: set = set()
        self._sequence = 0
        self._epoch_start_height = 0
        #: Observability bundle (attached by the deployment layer).
        self._obs = None

    def attach_obs(self, obs) -> None:
        """Report publication/ordering/epoch metrics through ``obs``."""
        self._obs = obs

    def _count(self, name: str) -> None:
        if self._obs is not None:
            self._obs.metrics.counter(name)

    def _shards_of(self, group: ServerGroup) -> Tuple[int, ...]:
        """The ordering shards ``group`` involves; none without a shard map."""
        return self._map.shards_of(group.members) if self._map else ()

    # -- introspection ---------------------------------------------------------------

    @property
    def shard_map(self) -> Optional[OrderingShardMap]:
        return self._map

    @property
    def epoch_anchors(self) -> List[EpochAnchor]:
        """The sealed anchor chain (always empty without a shard map)."""
        return list(self._anchors)

    @property
    def pending_count(self) -> int:
        return sum(len(lane.buffer) for lane in self._lanes)

    @property
    def ordered_blocks(self) -> List[OrderedBlock]:
        return list(self._ordered)

    @property
    def stream_length(self) -> int:
        return len(self._ordered)

    # -- publication -----------------------------------------------------------------

    @staticmethod
    def round_identity(block: Block, group: ServerGroup):
        """What makes two published blocks "the same round".

        Group membership plus the transaction set -- the view is deliberately
        *excluded*: a successor coordinator re-proposes a stalled round at a
        higher view, and if the original publication is still floating in a
        lane (the deposed coordinator died after publishing but before anyone
        saw the stream), both copies reach the service.  Only one may enter
        the global log.
        """
        return (
            tuple(sorted(group.members)),
            tuple(sorted(txn.txn_id for txn in block.transactions)),
        )

    def seen(self, block: Block, group: ServerGroup) -> bool:
        """Whether a block with this round identity was already accepted."""
        return self.round_identity(block, group) in self._identities

    def publish(self, block: Block, group: ServerGroup) -> bool:
        """A group coordinator hands over a locally co-signed block.

        Returns ``False`` (publication ignored) when a block with the same
        round identity was already accepted -- the dedup that makes
        coordinator failover's re-proposal idempotent at the ordering layer.
        """
        identity = self.round_identity(block, group)
        if identity in self._identities:
            self._count("ordserv.duplicates_suppressed")
            return False
        self._identities.add(identity)
        self._count("ordserv.published")
        shards = self._shards_of(group)
        pending = _PendingBlock(block, group, self._sequence, shards)
        self._sequence += 1
        if len(shards) > 1:
            self._merge_lanes()
            self._finalize(pending)
            self._seal_epoch()
            return True
        lane = self._lanes[shards[0] if shards else 0]
        lane.buffer.append(pending)
        if len(lane.buffer) >= self._high:
            # Anchors mark merge points, not buffer pressure: no epoch here.
            self._release(lane, self._low)
        return True

    def flush(self) -> None:
        """Finalise every pending block and seal the trailing epoch, so the
        anchor chain always covers the whole stream."""
        self._merge_lanes()
        if len(self._ordered) > self._epoch_start_height:
            self._seal_epoch()

    def flush_conflicting(self, group: ServerGroup) -> None:
        """Finalise every pending block whose group overlaps ``group``.

        A group coordinator calls this before starting a new TFCommit round:
        the speculative Merkle roots its cohorts are about to compute must
        reflect every already-published block touching the same shards.  A
        buffered block can overlap ``group`` only if it shares a server with
        it, so only the lanes of ``group``'s own shards are touched.  What
        lands with the overlapping blocks depends on how the lane releases:

        * a submission-order lane (window 0) lands its *prefix* up to the
          last overlapping block -- the prefix contains every in-lane block
          the overlapping ones could depend on;
        * a windowed lane lands only the overlapping blocks and, transitively,
          the earlier blocks that feed into them; other blocks of disjoint
          groups stay pending and keep their reordering freedom.
        """
        for shard in self._shards_of(group) or (0,):
            lane = self._lanes[shard]
            overlapping = [p for p in lane.buffer if p.group.overlaps(group)]
            if not overlapping:
                continue
            if self._low == 0:
                must_land = lane.buffer[: lane.buffer.index(overlapping[-1]) + 1]
            else:
                must_land = overlapping
                changed = True
                while changed:
                    changed = False
                    for pending in lane.buffer:
                        if pending not in must_land and any(
                            pending.sequence < landing.sequence and pending.feeds_into(landing)
                            for landing in must_land
                        ):
                            must_land.append(pending)
                            changed = True
            # Submission order within the selected subset is always
            # dependency-safe, and every upstream dependency was pulled in.
            for pending in sorted(must_land, key=lambda p: p.sequence):
                lane.buffer.remove(pending)
                self._finalize(pending)

    # -- release and merge -----------------------------------------------------------

    def _release(self, lane: _Lane, keep: int) -> None:
        while len(lane.buffer) > keep:
            self._finalize(lane.buffer.pop(self._pick_next(lane) if self._low else 0))

    def _pick_next(self, lane: _Lane) -> int:
        """Pick the next block a windowed lane finalises.

        Any pending block may go next as long as no *earlier-submitted*
        pending block has a dependency flowing into it.  Under the model
        checker the pick among all eligible candidates is a branch point, so
        every dependency-safe release order of the reorder window gets
        explored.
        """
        eligible = [
            index
            for index, candidate in enumerate(lane.buffer)
            if not any(prior.feeds_into(candidate) for prior in lane.buffer[:index])
        ]
        if not eligible:
            return 0
        return eligible[choose("ordserv/pick-next", len(eligible), 0, feature="ordserv-pick")]

    def _merge_lanes(self) -> None:
        """Drain every lane; the lane interleaving is a checker choice point.

        Any interleaving is dependency-safe (disjoint lanes cannot hold
        dependent blocks), so the merge is deterministic in production
        (lowest lane first) and explorable under the model checker.
        """
        while True:
            nonempty = [lane for lane in self._lanes if lane.buffer]
            if not nonempty:
                return
            pick = choose("ordserv/epoch-merge", len(nonempty), 0, feature="shard-merge")
            self._release(nonempty[pick], 0)

    def _finalize(self, pending: _PendingBlock) -> None:
        for lane in self._lanes:
            for prior in lane.buffer:
                if prior.sequence < pending.sequence and prior.feeds_into(pending):
                    raise ProtocolInvariantError(
                        f"ordering service would finalise block seq={pending.sequence} "
                        f"before pending dependency seq={prior.sequence} of an "
                        f"overlapping group in lane {lane.index}"
                    )
        previous_hash = self._ordered[-1].block_hash if self._ordered else EMPTY_HASH
        chained = replace(
            pending.block, height=len(self._ordered), previous_hash=previous_hash
        )
        for shard in pending.shards:
            lane = self._lanes[shard]
            lane.height += 1
            lane.head = fold_shard_head(lane.head, chained)
        ordered = OrderedBlock(
            global_height=len(self._ordered),
            block=chained,
            group=pending.group,
            sequence=pending.sequence,
            shards=pending.shards,
        )
        self._ordered.append(ordered)
        if self._obs is not None:
            self._obs.metrics.counter("ordserv.ordered")
            self._obs.metrics.gauge("ordserv.stream_length", float(len(self._ordered)))
        for subscriber in self._subscribers:
            subscriber(ordered)

    def _seal_epoch(self) -> None:
        """Seal one epoch anchor; a stream without shard structure has none."""
        if self._map is None:
            return
        anchor = EpochAnchor(
            epoch=len(self._anchors),
            start_height=self._epoch_start_height,
            end_height=len(self._ordered),
            shard_heights=tuple(lane.height for lane in self._lanes),
            shard_heads=tuple(lane.head for lane in self._lanes),
            previous=self._anchors[-1].anchor_hash() if self._anchors else GENESIS_ANCHOR_HASH,
        )
        self._anchors.append(anchor)
        self._epoch_start_height = anchor.end_height
        self._count("ordserv.epochs")
        for subscriber in self._anchor_subscribers:
            subscriber(anchor)

    # -- delivery --------------------------------------------------------------------

    def subscribe(self, callback: Callable[[OrderedBlock], None]) -> None:
        """Register a delivery callback (one per server, typically)."""
        self._subscribers.append(callback)

    def subscribe_anchors(self, callback: Callable[[EpochAnchor], None]) -> None:
        """Register a callback fired once per sealed epoch anchor."""
        self._anchor_subscribers.append(callback)

    # -- self-checks (tests, model-checker scenarios) -------------------------------

    def verify_dependency_order(self) -> bool:
        """Check that the finalised stream never reorders dependent blocks:
        between blocks of overlapping groups that share a written item, the
        stream keeps publication order.  (The data relation is symmetric,
        so only ``sequence`` says which of two such blocks came first.)"""
        for later_index, later in enumerate(self._ordered):
            for earlier in self._ordered[:later_index]:
                if (
                    earlier.sequence > later.sequence
                    and earlier.group.overlaps(later.group)
                    and dependency_between(earlier.block.transactions, later.block.transactions)
                ):
                    return False
        return True

    def verify_shard_chains(self) -> bool:
        """Recompute every lane chain from the finalized stream and compare."""
        heights = [0] * len(self._lanes)
        heads = [GENESIS_SHARD_HEAD] * len(self._lanes)
        for ordered in self._ordered:
            for shard in self._shards_of(ordered.group):
                heights[shard] += 1
                heads[shard] = fold_shard_head(heads[shard], ordered.block)
        return all(
            (lane.height, lane.head) == (heights[lane.index], heads[lane.index])
            for lane in self._lanes
        )


# -- the two constructors ------------------------------------------------------------

#: What ``ScaledFidesSystem(sequencer=...)`` takes: a factory called with the
#: deployment's ``SystemConfig`` once the server set is known.
SequencerFactory = Callable[[object], OrderingService]


def single_sequencer(reorder_window: int = 0) -> SequencerFactory:
    """The classic one-lane service: up to ``reorder_window`` blocks float."""
    return lambda config: OrderingService(reorder_window=reorder_window)


def sharded_sequencer(num_shards: int, epoch_max_blocks: int = 32) -> SequencerFactory:
    """One submission-order lane per ordering shard of the config's servers."""
    return lambda config: OrderingService(
        shard_map=OrderingShardMap.for_servers(config.server_ids, num_shards),
        epoch_max_blocks=epoch_max_blocks,
    )
