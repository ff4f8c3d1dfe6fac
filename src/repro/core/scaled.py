"""The scaled multi-coordinator deployment (Section 4.6, Figure 9).

The basic protocol drags every server into every TFCommit round through one
fixed coordinator.  To scale, "servers are divided into small dynamic groups.
The servers accessed by a transaction form one group, in which one server
acts as the coordinator to terminate that transaction"; the per-group blocks
are then merged into the single consistently ordered global log by an
ordering service (realisable with Kafka as in Veritas, or with
dependency-tracking as in ParBlockchain -- here
:class:`~repro.core.sequencing.OrderingService`).

:class:`ScaledFidesSystem` wires the pieces together:

* clients route each ``end_transaction`` to the coordinator of the
  transaction's dynamic group (:func:`~repro.core.grouping.group_for_transaction`);
* each group coordinator runs TFCommit over *only* the group's members
  (:class:`GroupTFCommitCoordinator`), producing a block co-signed by the
  group;
* instead of a per-coordinator decision broadcast, the co-signed group block
  is published to the ordering service, which assigns the global height and
  hash pointer and atomically broadcasts the chained stream to **every**
  server;
* every server applies the globally ordered stream, so all logs converge to
  the same dependency-respecting chain, which the auditor verifies -- hash
  pointers over the full body *and* the group co-sign over the chain-free
  group body digest (see :mod:`repro.ledger.block` on the identity split).

Everything else is :class:`~repro.core.fides.FidesSystem`'s.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import SystemConfig
from repro.common.errors import ProtocolInvariantError
from repro.common.types import ServerId
from repro.core.fides import PROTOCOL_TFCOMMIT, FidesSystem
from repro.core.grouping import group_for_batch
from repro.core.rounds import (
    BlockCommitResult,
    Round,
    RoundStatus,
    TimingBreakdown,
    footprint,
    timed_broadcast,
)
from repro.core.sequencing import OrderedBlock, SequencerFactory, single_sequencer
from repro.core.tfcommit import TFCommitCoordinator
from repro.crypto.keys import keypair_for
from repro.net.forms import DecidedBlock, Refusal
from repro.net.message import MessageType
from repro.sim.scheduler import ORDSERV_RESOURCE
from repro.txn.transaction import Transaction

#: Identity under which the ordering service broadcasts on the network.
ORDSERV_ID = "ordserv"


class GroupTFCommitCoordinator(TFCommitCoordinator):
    """A TFCommit coordinator terminating transactions for dynamic groups.

    One instance lives on every server that leads at least one group.  Per
    batch it forms the covering group, runs the five TFCommit phases over
    only its members, and publishes the co-signed block to the ordering
    service instead of broadcasting a decision itself.
    """

    def __init__(self, server, system: "ScaledFidesSystem") -> None:
        super().__init__(
            server=server,
            network=system.network,
            server_ids=[server.server_id],
            sim=system.sim,
            txns_per_block=system.config.txns_per_block,
            latency=system.latency,
        )
        self._system = system
        self._ordering = system.ordering

    def _cohorts_for(self, transactions: Sequence[Transaction]):
        """The batch's dynamic group, in the deployment's current view (one
        view change fences a deposed leader across all the groups it drove)."""
        group = group_for_batch(
            transactions, self._system.shard_map, exclude=self._system.deposed_servers()
        )
        if group.coordinator != self.coordinator_id:
            # The union of per-transaction groups always has this server as
            # its smallest member, because every transaction was routed here
            # for exactly that reason; a mismatch means the shard map and the
            # client router disagree.
            raise ProtocolInvariantError(
                f"batch group coordinator {group.coordinator} is not {self.coordinator_id}"
            )
        # Blocks of overlapping groups still floating in the ordering
        # service's reorder window must land first: the speculative roots
        # this round is about to compute have to reflect their writes.
        self._ordering.flush_conflicting(group)
        return sorted(group.members), group, self._system.view

    def _deliver(self, round: Round) -> None:
        """Hand the co-signed group block over; delivery happens via OrdServ.

        The ordering service may hold the block in its reorder window, so the
        round goes with it (:attr:`OrderedDelivery.handoffs`): the ordered
        delivery is the round's terminal phase, scheduled on the shared
        ``ordserv`` resource, charged to this round's timing and stamped into
        its result when the block lands in the stream.
        """
        ordering = self._ordering
        identity = ordering.round_identity(round.block, round.group)
        if ordering.seen(round.block, round.group):
            # The round was already published: the deposed coordinator died
            # *after* handing its block to the ordering service, and this is
            # a successor's re-proposal of it.  ``flush_conflicting`` landed
            # the original before this round started; it carries the
            # decision.  The duplicate must not enter the stream twice, so no
            # ORDERED_BLOCK will ever release the state its cohorts armed for
            # it -- tell them now.
            self._release_cohorts(round)
            round.decision = next(
                ordered.block
                for ordered in ordering.ordered_blocks
                if ordering.round_identity(ordered.block, ordered.group) == identity
            )
            round.advance(RoundStatus.DECIDED)
        else:
            self._system.delivery.handoffs[identity] = round
            round.advance(RoundStatus.PUBLISHED)

    def _close(self, round: Round) -> BlockCommitResult:
        result = super()._close(round)
        if round.status is RoundStatus.PUBLISHED:
            # Only now that the round's result is on file may the stream
            # deliver the block (at once, without a reorder window).
            self._ordering.publish(round.block, round.group)
        return result


class OrderedDelivery:
    """The ordering service's subscriber, the stream's atomic broadcast:
    delivers every finalised block to every server and takes the publishing
    round from ``published`` to ``delivered``."""

    def __init__(self, system: "ScaledFidesSystem") -> None:
        self._system = system
        #: round identity -> published, not yet delivered round (empty
        #: whenever the stream is flushed).
        self.handoffs: Dict[tuple, Round] = {}
        #: Every refusal a server answered an ordered block with.
        self.failures: List[Refusal] = []
        #: Global height the next ordered delivery must carry (the stream is
        #: an atomic broadcast: no gaps, no replays).
        self._next_height = 0

    def deliver(self, ordered: OrderedBlock) -> None:
        """Atomically broadcast one finalised block to every server.

        Simulated-time accounting mirrors a coordinator phase: one outbound
        delay, the slowest server's measured apply compute, one inbound
        delay; the cost is charged to the originating round's ``order`` phase.
        """
        system, sim, block = self._system, self._system.sim, ordered.block
        if ordered.global_height != self._next_height:
            raise ProtocolInvariantError(
                f"ordered stream delivered height {ordered.global_height}, "
                f"expected {self._next_height} (gap or replay in the "
                "atomic broadcast)"
            )
        self._next_height += 1
        # No round means the block was published directly (tests): it is
        # delivered all the same, its cost charged to a scratch breakdown.
        round = self.handoffs.pop(system.ordering.round_identity(block, ordered.group), None)
        timing = round.timing if round else TimingBreakdown()
        task, span = (round.task, round.span) if round else (None, None)
        # The delivery is the round's terminal phase on the virtual timeline:
        # it serializes on the shared "ordserv" resource (the service emits
        # one stream) and cannot start before the publishing round's
        # co-signing finished.  Assigning the start before the sends lets
        # fault hooks inside the apply handlers fire at the delivery's time.
        # A sharded sequencer stamps the block's ordering shards: its
        # delivery occupies only those lanes' timeline resources, so
        # disjoint shards interleave and a cross-shard block barriers.
        resources = tuple(
            f"{ORDSERV_RESOURCE}/s{shard}" for shard in ordered.shards
        ) or (ORDSERV_RESOURCE,)
        start = sim.scheduler.begin_delivery(task, resources=resources)
        _, failures = timed_broadcast(
            system.network,
            system.latency,
            ORDSERV_ID,
            list(system.config.server_ids),
            MessageType.ORDERED_BLOCK,
            DecidedBlock(block),
            timing,
            "order",
            sim=sim,
        )
        status = "committed" if block.is_commit else "aborted"
        reads, writes = footprint(block.transactions)
        _, delivered_at = sim.scheduler.end_delivery(
            task,
            start,
            timing.phases["order"],
            read_items=reads,
            write_items=writes,
            resources=resources,
        )
        span_actor = (
            f"{ORDSERV_ID}/s" + "+".join(str(shard) for shard in ordered.shards)
            if ordered.shards
            else ORDSERV_ID
        )
        sim.obs.tracer.add_span(
            "order",
            "delivery",
            span_actor,
            start,
            delivered_at,
            parent=span,
            global_height=ordered.global_height,
        )
        sim.obs.metrics.counter(f"rounds.delivered_{status}")
        self.failures.extend(failures)
        if round is not None:
            # The ordered delivery is the round's terminal phase, so its
            # causal window (and trace span) ends here, not at the group
            # co-sign.  A server that rejected the ordered block (diverged
            # log, bad signature under fault injection) surfaces exactly
            # like a phase-5 decision failure in the classic deployment.
            round.decision = block
            round.refusals = round.refusals + failures
            round.advance(RoundStatus.DELIVERED)
            system.coordinators[round.coordinator]._close(round)


class ScaledFidesSystem(FidesSystem):
    """A Fides deployment terminating transactions in dynamic server groups.

    :class:`~repro.core.fides.FidesSystem` wired as the module docstring
    describes (TFCommit only -- the 2PC baseline has no co-signed blocks to
    order).

    ``sequencer`` configures the ordering service: a
    :data:`~repro.core.sequencing.SequencerFactory` called with the system's
    config and observability bundle once the server set is known.  The
    default, ``single_sequencer()``, is one lane in submission order;
    ``single_sequencer(w)`` lets up to ``w`` blocks of disjoint groups be
    reordered (the freedom the paper grants OrdServ), and
    :func:`~repro.core.sequencing.sharded_sequencer` gives every ordering
    shard its own lane (DESIGN.md §5).
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        latency=None,
        state_store_factory=None,
        compute_model=None,
        obs=None,
        sequencer: Optional[SequencerFactory] = None,
    ) -> None:
        self._sequencer_factory = sequencer or single_sequencer()
        super().__init__(
            config, PROTOCOL_TFCOMMIT, latency, state_store_factory, compute_model, obs
        )

    def _wire_termination(self) -> None:
        """No designated coordinator: the smallest non-deposed member of a
        round's dynamic group leads it, with a :class:`GroupTFCommitCoordinator`,
        and the ordering service stamps and delivers the chain."""
        self.coordinator_id = None
        self.ordering = self._sequencer_factory(self.config, self.sim.obs)
        self.network.register_observer(
            ORDSERV_ID, keypair_for(ORDSERV_ID, seed=self.config.seed)
        )
        self.delivery = OrderedDelivery(self)
        self.delivery_failures = self.delivery.failures
        self.ordering.subscribe(self.delivery.deliver)
        self._route = lambda transactions: group_for_batch(
            transactions, self.shard_map, exclude=self._deposed
        ).coordinator
        self._new_coordinator = lambda server_id: GroupTFCommitCoordinator(
            self.servers[server_id], self
        )

    # -- introspection ---------------------------------------------------------------------

    @property
    def active_group_coordinators(self) -> List[ServerId]:
        """Servers that actually coordinated at least one block round."""
        return sorted(
            server_id
            for server_id, coordinator in self.coordinators.items()
            if coordinator.results
        )

    def groups_used(self) -> List[Tuple[ServerId, ...]]:
        """Every distinct dynamic group that produced an ordered block."""
        return sorted(
            {
                tuple(sorted(ordered.group.members))
                for ordered in self.ordering.ordered_blocks
            }
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ScaledFidesSystem(servers={len(self.servers)}, "
            f"group_coordinators={len(self.coordinators)}, "
            f"txns_per_block={self.config.txns_per_block}, "
            f"ordered_blocks={self.ordering.stream_length})"
        )

