"""TFCommit: the TrustFree Commitment protocol (Section 4.3).

TFCommit merges Two-Phase Commit with Collective Signing so that the commit /
abort decision of every distributed transaction is bound to a block that all
servers validated and co-signed.  The protocol has five phases over three
communication rounds (Figure 7):

1. ``<GetVote, SchAnnouncement>`` -- the coordinator builds the partial block
   ``[ts, R/W sets, h_prev]`` and broadcasts it with the encapsulated signed
   client request(s).
2. ``<Vote, SchCommitment>`` -- every cohort computes a Schnorr commitment;
   involved cohorts validate locally and report their speculative Merkle root.
3. ``<null, SchChallenge>`` -- the coordinator aggregates votes, fills in the
   decision and roots, aggregates the Schnorr commitments, and derives the
   challenge ``c = H(X || block)``.
4. ``<null, SchResponse>`` -- cohorts check the completed block against what
   they voted and return their Schnorr responses.
5. ``<Decision, null>`` -- the coordinator aggregates the responses into the
   collective signature, finalises the block, and broadcasts it; servers
   append it to their logs and apply the writes.

This module implements the *coordinator* side (the cohort side lives in
:class:`repro.server.commitment.CommitmentLayer`), plus the batch builder
that packs multiple non-conflicting transactions per block (Section 4.6) and
the timing model used by the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.check.choices import choose_order
from repro.check.mutations import mutation_enabled
from repro.common.errors import ProtocolError, ProtocolInvariantError, UnreachableError
from repro.common.timestamps import Timestamp
from repro.crypto.cosi import (
    CollectiveSignature,
    aggregate_points,
    aggregate_scalars,
    compute_challenge,
    cosi_verify,
    identify_faulty_signers,
)
from repro.crypto.group import Point, decompress_point
from repro.ledger.block import Block, BlockDecision, make_partial_block
from repro.net.latency import LatencyModel
from repro.net.message import Envelope, MessageType
from repro.net.network import Network
from repro.obs.timing import Stopwatch
from repro.sim.context import SimContext
from repro.sim.scheduler import KIND_BROADCAST, KIND_COMPUTE, KIND_TERMINAL, BlockTask
from repro.txn.transaction import Transaction


@dataclass
class TimingBreakdown:
    """Simulated-time cost of committing one block.

    ``phases`` maps each communication phase to its simulated latency: the
    network round trip for that phase plus the slowest participant's measured
    compute.  ``mht_time`` is the largest per-cohort Merkle update time
    (cohorts update their trees in parallel on real hardware).  See DESIGN.md
    for the substitution rationale.
    """

    phases: Dict[str, float] = field(default_factory=dict)
    network_time: float = 0.0
    compute_time: float = 0.0
    coordinator_time: float = 0.0
    mht_time: float = 0.0
    mht_hashes: int = 0
    num_txns: int = 0

    @property
    def total(self) -> float:
        """End-to-end simulated latency of the block."""
        return sum(self.phases.values())

    @property
    def per_txn_latency(self) -> float:
        """Amortised latency of a single transaction in the block."""
        if self.num_txns == 0:
            return self.total
        return self.total / self.num_txns


@dataclass(frozen=True)
class TxnOutcome:
    """Outcome of one transaction within a block."""

    txn_id: str
    status: str  # "committed" / "aborted" / "failed"
    block_height: Optional[int] = None
    reason: str = ""
    #: Virtual time at which the block's decision landed (the end of the
    #: round's terminal phase on the simulated timeline); ``None`` while a
    #: published group block still waits for its ordered delivery.
    decided_at: Optional[float] = None

    def to_wire(self, block_digest: Optional[bytes] = None, cosign=None):
        return {
            "txn_id": self.txn_id,
            "status": self.status,
            "block_height": self.block_height,
            "reason": self.reason,
            "decided_at": self.decided_at,
            "block_digest": block_digest,
            "cosign": cosign,
        }


@dataclass
class BlockCommitResult:
    """Everything TFCommit produces for one block."""

    status: str  # "committed", "aborted", or "failed"
    block: Optional[Block]
    outcomes: List[TxnOutcome]
    timing: TimingBreakdown
    abort_reasons: List[str] = field(default_factory=list)
    refusals: List[Dict] = field(default_factory=list)
    culprits: List[str] = field(default_factory=list)

    @property
    def committed(self) -> bool:
        return self.status == "committed"


class BatchBuilder:
    """Packs pending transactions into non-conflicting batches (Section 4.6).

    "The coordinator collects and inserts a set of non-conflicting client
    generated transactions and orders them within a single block" -- the
    builder walks the pending queue in arrival order and greedily selects
    transactions that neither conflict with one another nor carry a commit
    timestamp at or below the latest committed timestamp.
    """

    def __init__(self, txns_per_block: int) -> None:
        if txns_per_block < 1:
            raise ProtocolError("txns_per_block must be >= 1")
        self.txns_per_block = txns_per_block

    def take_batch(
        self,
        pending: List[Tuple[Transaction, Envelope]],
        latest_committed_ts: Optional[Timestamp] = None,
    ) -> Tuple[List[Tuple[Transaction, Envelope]], List[Tuple[Transaction, Envelope]]]:
        """Remove the next batch from ``pending`` (in place).

        Returns ``(batch, stale)``: the selected transactions, plus any whose
        commit timestamp fell at or below ``latest_committed_ts`` -- these
        became stale when an earlier block of the same flush committed and
        must be failed rather than proposed (Section 4.3.1's staleness rule
        applies at batch-formation time, not only at arrival time).
        """
        batch: List[Tuple[Transaction, Envelope]] = []
        stale: List[Tuple[Transaction, Envelope]] = []
        remaining: List[Tuple[Transaction, Envelope]] = []
        for txn, envelope in pending:
            if latest_committed_ts is not None and txn.commit_ts <= latest_committed_ts:
                stale.append((txn, envelope))
                continue
            if len(batch) >= self.txns_per_block:
                remaining.append((txn, envelope))
                continue
            if any(txn.conflicts_with(selected) for selected, _ in batch):
                remaining.append((txn, envelope))
                continue
            batch.append((txn, envelope))
        pending[:] = remaining
        return batch, stale


#: Failure reason for transactions whose commit timestamp fell at or below
#: the latest committed timestamp.  Clients match on it to decide whether a
#: failed transaction is retryable with a refreshed clock.
STALE_TIMESTAMP_REASON = "stale commit timestamp"


def _stale_outcome(txn: Transaction) -> TxnOutcome:
    return TxnOutcome(txn.txn_id, "failed", reason=STALE_TIMESTAMP_REASON)


def stale_failure_response(txn: Transaction, latest_committed_ts: Timestamp) -> Dict:
    """Coordinator response failing one transaction for a stale timestamp.

    Shared by TFCommit and the 2PC baseline so the staleness contract (the
    failure reason and the ``latest_committed_ts`` clients refresh their
    clocks from) lives in one place.
    """
    outcome = _stale_outcome(txn)
    return {
        "status": "flushed",
        "results": {txn.txn_id: outcome.to_wire()},
        "latest_committed_ts": latest_committed_ts.as_tuple(),
    }


def flushed_response(results: Dict[str, Dict], latest_committed_ts: Timestamp) -> Dict:
    """Coordinator response carrying a flush's outcomes.

    Clients observe ``latest_committed_ts`` to refresh their Lamport clocks,
    exactly as they observe rts/wts on reads; a client retrying a stale
    commit needs it to pick a timestamp above the committed frontier.
    """
    return {
        "status": "flushed",
        "results": results,
        "latest_committed_ts": latest_committed_ts.as_tuple(),
    }


def drain_stale(
    batch_builder: BatchBuilder,
    pending: List[Tuple[Transaction, Envelope]],
    latest_committed_ts: Timestamp,
    results: Dict[str, Dict],
) -> List[Tuple[Transaction, Envelope]]:
    """Take the next batch, recording a failure for every stale transaction."""
    batch, stale = batch_builder.take_batch(pending, latest_committed_ts)
    for txn, _ in stale:
        results[txn.txn_id] = _stale_outcome(txn).to_wire()
    return batch


#: Virtual seconds a participant waits on a phase's response before declaring
#: the peer silent.  This is the round timer of the view-change protocol:
#: cohorts arm it when they first see ``GET_VOTE``/``PREPARE`` (see
#: :class:`repro.server.commitment.RoundState`), and the sender of a phase
#: charges it for every recipient that never answers.  It is deliberately two
#: orders of magnitude above the default network latency (0.2 ms) so honest
#: slow responses never trip it in the simulated deployments.
ROUND_TIMEOUT_S = 0.05


def validate_batch(transactions: Sequence[Transaction]) -> None:
    """Enforce the BatchBuilder contract on a batch about to be proposed.

    Shared by TFCommit and the 2PC baseline: an empty batch or one carrying
    internally conflicting transactions indicates a coordinator-side bug, not
    a recoverable protocol condition.
    """
    if not transactions:
        raise ProtocolInvariantError("commit_batch called with an empty batch")
    for index, txn in enumerate(transactions):
        for earlier in transactions[:index]:
            if txn.conflicts_with(earlier):
                raise ProtocolInvariantError(
                    f"batch contains conflicting transactions "
                    f"{earlier.txn_id} and {txn.txn_id} (BatchBuilder contract)"
                )


def footprint(transactions: Sequence[Transaction]) -> Tuple[frozenset, frozenset]:
    """The items a batch reads and the items it writes -- what the scheduler
    compares to decide which rounds and ordered deliveries may overlap."""
    return (
        frozenset(entry.item_id for txn in transactions for entry in txn.read_set),
        frozenset(entry.item_id for txn in transactions for entry in txn.write_set),
    )


def timed_exchange(
    network: Network,
    latency: LatencyModel,
    sender: str,
    recipients: Sequence[str],
    message_type: MessageType,
    payload_for,
    timing: TimingBreakdown,
    phase: str,
    sim: SimContext,
    task: Optional[BlockTask] = None,
    kind: str = KIND_BROADCAST,
    timeout: float = ROUND_TIMEOUT_S,
    span: Optional[int] = None,
) -> Dict[str, Dict]:
    """Send one phase's (possibly per-recipient) message and charge ``timing``.

    ``payload_for`` maps each recipient to its payload -- the honest phases
    send every cohort the same dict (see :func:`timed_broadcast`), while the
    equivocation fault injection sends different blocks to different halves.
    Routing *every* per-recipient send through here keeps three behaviours in
    one place: the ``choose_order`` branch point the model checker explores,
    the synthesised unreachable refusal, and the simulated-time accounting.

    The simulated-time rule lives here, shared by TFCommit, the 2PC
    baseline, and the ordering service's delivery: each recipient gets its
    own sampled outbound delay, its measured compute, and its own sampled
    inbound delay, and the phase costs the slowest recipient's *round trip*
    -- the coordinator waits for the last response, and a server's reply
    can only travel after its own request arrived and its own compute ran
    (pairing one server's outbound sample with another's inbound sample
    would build a round trip no single machine experienced).  Recipients
    work in parallel on real hardware, so the max is the right aggregate;
    the ``default=0.0`` guards keep empty recipient lists at zero cost.

    When a block task is given, the phase is also scheduled as an event
    window on the shared virtual timeline (its start is assigned *before*
    the messages go out, so fault hooks fire at the phase's virtual time);
    without one, ``sim``'s compute model still applies but no window is
    scheduled (the caller schedules the activity itself, e.g. the ordering
    service's delivery).

    A recipient that is down -- crashed before the send, or crashing while
    handling it -- yields a synthesised ``{"ok": False, "unreachable": True,
    "timed_out": True}`` response instead of an exception: losing a cohort
    mid-round is a liveness event the round must observe and fail on, not a
    crash of the coordinator.  No reply ever travels from a dead peer, so
    the phase charges the sender the full ``timeout`` wait for it rather
    than a phantom ``outbound + 0 + inbound`` round trip.

    When tracing is enabled and a task is given, the phase becomes a span
    (parented under ``span``, the caller's round span) with one child RPC
    span per recipient whose window is that peer's own round trip -- the
    coordinator -> cohort causal edge in the trace.
    """
    if task is not None:
        sim.scheduler.begin_phase(task, phase, kind=kind)
    # Cohorts process a phase's message in no guaranteed order relative to
    # one another; under the model checker that order is a branch point (it
    # decides e.g. which cohorts registered a round before one crashes).
    recipients = choose_order(f"net/phase/{phase}", list(recipients), feature="net-order")
    outbound = {recipient: latency.sample() for recipient in recipients}
    responses: Dict[str, Dict] = {}
    for recipient in recipients:
        try:
            responses[recipient] = network.send(
                sender, recipient, message_type, payload_for(recipient)
            )
        except UnreachableError as exc:
            responses[recipient] = {
                "server_id": recipient,
                "ok": False,
                "unreachable": True,
                "timed_out": True,
                "reason": str(exc),
                "compute_time": 0.0,
            }
    inbound = {recipient: latency.sample() for recipient in recipients}
    slowest = slowest_net = slowest_compute = 0.0
    round_trips: Dict[str, float] = {}
    for recipient in recipients:
        if responses[recipient].get("unreachable"):
            # The sender waits out the round timer on a silent peer; the
            # wait is pure network idle time, no compute ever ran.
            round_trip = net = timeout
            compute = 0.0
        else:
            compute = sim.effective_compute(
                phase, responses[recipient].get("compute_time", 0.0) or 0.0
            )
            round_trip = outbound[recipient] + compute + inbound[recipient]
            net = outbound[recipient] + inbound[recipient]
        round_trips[recipient] = round_trip
        if round_trip >= slowest:
            slowest = round_trip
            slowest_net = net
            slowest_compute = compute
    timing.phases[phase] = slowest
    timing.network_time += slowest_net
    timing.compute_time += slowest_compute
    obs = sim.obs
    obs.metrics.counter(f"phase.{phase}.count")
    obs.metrics.observe(f"phase.{phase}.s", slowest)
    for recipient in recipients:
        if responses[recipient].get("unreachable"):
            obs.metrics.counter("net.unreachable")
        else:
            obs.metrics.observe(f"net.rtt.{phase}_s", round_trips[recipient])
    if task is not None:
        phase_start, phase_end = sim.scheduler.end_phase(task, phase, slowest)
        if obs.tracing:
            timed_out = any(
                responses[recipient].get("timed_out") for recipient in recipients
            )
            phase_span = obs.tracer.add_span(
                phase,
                "phase",
                sender,
                phase_start,
                phase_end,
                parent=span,
                status="timeout" if timed_out else "ok",
            )
            for recipient in recipients:
                obs.tracer.add_span(
                    f"rpc:{message_type.value}",
                    "rpc",
                    recipient,
                    phase_start,
                    phase_start + round_trips[recipient],
                    parent=phase_span,
                    status=(
                        "unreachable"
                        if responses[recipient].get("unreachable")
                        else "ok"
                    ),
                )
    return responses


def timed_broadcast(
    network: Network,
    latency: LatencyModel,
    sender: str,
    recipients: Sequence[str],
    message_type: MessageType,
    payload: Dict,
    timing: TimingBreakdown,
    phase: str,
    sim: SimContext,
    **options,
) -> Dict[str, Dict]:
    """Broadcast one phase's message to every recipient (same payload each).

    Thin wrapper over :func:`timed_exchange`; see there for ``options``
    (``task``, ``kind``, ``timeout``, ``span``) and for the timing and
    unreachable-handling contract.
    """
    return timed_exchange(
        network, latency, sender, recipients, message_type,
        lambda _recipient: payload, timing, phase, sim, **options,
    )


class SimScheduledRounds:
    """A coordinator's front-end, and its rounds on the virtual timeline.

    The base of the TFCommit coordinator and the 2PC baseline.  Both queue
    ``end_transaction`` requests, cut them into batches, and report outcomes
    the same way (they differ in :meth:`commit_batch` and in what proof an
    outcome carries, :meth:`_wire_outcomes`); both chain blocks at
    aggregation time and deliver decisions in order, so the same dependency
    rules govern how far their rounds pipeline; and a coordinator failover
    needs the same small queue/frontier surface from either.
    """

    #: Whether this coordinator's blocks chain onto its local log at proposal
    #: time (the classic deployment).  Group blocks do not -- the ordering
    #: service assigns their chain metadata later -- so consecutive rounds of
    #: one group coordinator have no chaining dependency, and the scheduler
    #: is told the round's group (its cohort set) instead.
    CHAINS_ON_LOG = True

    def __init__(
        self,
        server,
        network: Network,
        server_ids: Sequence[str],
        sim: SimContext,
        txns_per_block: int = 1,
        latency: Optional[LatencyModel] = None,
        view: int = 0,
    ) -> None:
        self.server = server
        self.network = network
        self.server_ids = list(server_ids)
        self.batch_builder = BatchBuilder(txns_per_block)
        self._latency = latency or network.latency_model
        self._pending: List[Tuple[Transaction, Envelope]] = []
        self._latest_committed_ts = Timestamp.zero()
        #: Coordinator view this instance proposes in: 0 for the original
        #: coordinator, bumped per view change.  Stamped into every proposed
        #: block (and hence into ``round_key``), so cohorts can refuse
        #: proposals from a deposed coordinator's stale view.
        self.view = view
        #: Simulation context: every phase of every round is scheduled as an
        #: event window on its shared virtual timeline, and consecutive
        #: rounds pipeline per the scheduler's dependency rules.
        self._sim = sim
        self._sim_task: Optional[BlockTask] = None
        #: Open trace span of the current round, tracked in lockstep with
        #: ``_sim_task`` (the scaled deployment nulls both at the ordering
        #: handoff and closes the span at delivery instead).
        self._sim_span: Optional[int] = None
        self._sim_blocks = 0
        #: History of every block round driven by this coordinator.
        self.results: List[BlockCommitResult] = []

    @property
    def coordinator_id(self) -> str:
        return self.server.server_id

    @property
    def available(self) -> bool:
        """False while the coordinator's own server is crashed.

        A crashed server cannot drive rounds; its queued transactions stay
        pending until it recovers (clients see them fail / retry), and the
        workload engine must not try to flush through it.
        """
        return not self.server.crashed

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    # -- client entry point -------------------------------------------------------

    def on_end_transaction(self, envelope: Envelope) -> Dict:
        """Handle a client's ``end_transaction`` request.

        Stale requests (commit timestamp at or below the latest committed
        timestamp) are ignored, as specified in Section 4.3.1.  Otherwise the
        transaction is queued; once a full batch is available the coordinator
        runs its commit protocol and returns the outcomes.
        """
        txn: Transaction = envelope.payload["transaction"]
        if txn.commit_ts <= self._latest_committed_ts:
            return stale_failure_response(txn, self._latest_committed_ts)
        self._pending.append((txn, envelope))
        if len(self._pending) >= self.batch_builder.txns_per_block:
            return self.flush()
        return {"status": "queued"}

    def flush(self) -> Dict:
        """Commit every pending transaction (possibly across several blocks)."""
        results: Dict[str, Dict] = {}
        while self._pending:
            batch = drain_stale(
                self.batch_builder, self._pending, self._latest_committed_ts, results
            )
            if not batch:
                # Every remaining transaction was stale; nothing left to commit.
                break
            results.update(self._wire_outcomes(self.commit_batch(batch)))
        return flushed_response(results, self._latest_committed_ts)

    def commit_batch(self, batch: Sequence[Tuple[Transaction, Envelope]]) -> BlockCommitResult:
        """Run one round of the commit protocol over ``batch``."""
        raise NotImplementedError

    def _wire_outcomes(self, result: BlockCommitResult) -> Dict[str, Dict]:
        """One round's outcomes as the client sees them, keyed by txn id."""
        return {outcome.txn_id: outcome.to_wire() for outcome in result.outcomes}

    def _decide(
        self,
        final_block: Block,
        transactions: Sequence[Transaction],
        timing: TimingBreakdown,
        abort_reasons: List[str],
    ) -> BlockCommitResult:
        """The round produced its decision block: deliver it the protocol's
        way (:meth:`_deliver_block`), close the round and report the outcomes."""
        status = "committed" if final_block.is_commit else "aborted"
        result = BlockCommitResult(
            status=status,
            block=final_block,
            outcomes=[
                TxnOutcome(txn.txn_id, status, final_block.height, "; ".join(abort_reasons))
                for txn in transactions
            ],
            timing=timing,
            abort_reasons=abort_reasons,
        )
        self._deliver_block(result)
        if final_block.is_commit:
            self._latest_committed_ts = max(
                self._latest_committed_ts, final_block.max_commit_ts
            )
        decided_at = self._end_sim_block(status)
        if decided_at is not None:
            # (``None``: the round's task went to the ordering service with
            # the block, whose delivery stamps the outcomes instead.)
            result.outcomes = [
                replace(outcome, decided_at=decided_at) for outcome in result.outcomes
            ]
        self.results.append(result)
        return result

    # -- failover surface ---------------------------------------------------------

    def take_pending(self) -> List[Tuple[Transaction, "Envelope"]]:
        """Drain and return this coordinator's unproposed queue.

        Used by a view change to migrate transactions stranded on a deposed
        coordinator to its successor.
        """
        items = list(self._pending)
        self._pending.clear()
        return items

    def adopt_pending(self, items: Sequence[Tuple[Transaction, "Envelope"]]) -> None:
        """Append migrated transactions to this coordinator's queue."""
        self._pending.extend(items)

    def observe_frontier(self, stamp: Timestamp) -> None:
        """Raise the committed-frontier watermark (never lowers it).

        A successor coordinator starts from the frontier recorded in its own
        log so the stale-timestamp admission check stays monotone across the
        view change.
        """
        self._latest_committed_ts = max(self._latest_committed_ts, stamp)

    def _begin_sim_block(self, transactions: Sequence[Transaction]) -> BlockTask:
        """Admit this round to the virtual timeline.

        The task carries the batch's read/write footprint and commit-
        timestamp range so the scheduler can decide how far this round may
        overlap earlier in-flight rounds (see the dependency rules in
        :mod:`repro.sim.scheduler`).
        """
        self._sim_blocks += 1
        reads, writes = footprint(transactions)
        stamps = [txn.commit_ts for txn in transactions]
        self._sim_task = self._sim.scheduler.begin_block(
            resource=self.coordinator_id,
            label=f"{self.coordinator_id}/round-{self._sim_blocks}",
            read_items=reads,
            write_items=writes,
            min_commit_ts=min(stamps).as_tuple() if stamps else None,
            max_commit_ts=max(stamps).as_tuple() if stamps else None,
            chained=self.CHAINS_ON_LOG,
            group_members=None if self.CHAINS_ON_LOG else frozenset(self.server_ids),
        )
        self._sim_span = self._sim.obs.tracer.open_span(
            self._sim_task.label,
            "round",
            self.coordinator_id,
            self._sim_task.ready_at,
            txns=[txn.txn_id for txn in transactions],
            view=self.view,
        )
        return self._sim_task

    def _end_sim_block(self, status: str) -> Optional[float]:
        """Finish the round on the timeline; returns its virtual end time
        (``None`` once the task was handed to the ordering service)."""
        task, self._sim_task = self._sim_task, None
        span, self._sim_span = self._sim_span, None
        self._sim.obs.metrics.counter(f"rounds.{status}")
        if task is None:
            return None
        done_at = self._sim.scheduler.end_block(task, status=status)
        self._sim.obs.tracer.close_span(span, done_at, status=status)
        return done_at

    def _obs_crypto(self, op: str, seconds: float) -> None:
        """Charge one coordinator-side crypto operation to the crypto
        micro-timer (op count + wall seconds, kept out of virtual time)."""
        self._sim.obs.metrics.counter(f"crypto.{op}.ops")
        self._sim.obs.metrics.counter(f"crypto.{op}.s", seconds)

    def _broadcast_phase(
        self,
        phase: str,
        message_type: MessageType,
        payload: Dict,
        timing: TimingBreakdown,
        kind: str = KIND_BROADCAST,
    ) -> Dict[str, Dict]:
        """Send one phase's message to every cohort via :func:`timed_broadcast`."""
        return timed_broadcast(
            self.network,
            self._latency,
            self.coordinator_id,
            self.server_ids,
            message_type,
            payload,
            timing,
            phase,
            sim=self._sim,
            task=self._sim_task,
            kind=kind,
            span=self._sim_span,
        )

    def _release_cohorts(self, block: Block) -> None:
        """Tell the round's (reachable) cohorts to drop the state they armed
        for ``block``: it will never see a decision."""
        self.network.broadcast(
            self.coordinator_id,
            self.server_ids,
            MessageType.ROUND_FAILED,
            {"round_key": block.round_key()},
            skip_unreachable=True,
        )

    def _begin_compute_phase(self, phase: str) -> None:
        """Open a coordinator compute phase (aggregate/finalize) on the
        round's task, *before* the work runs: fault hooks inside it fire at
        the phase's virtual start."""
        self._sim.scheduler.begin_phase(self._sim_task, phase, kind=KIND_COMPUTE)

    def _end_compute_phase(self, phase: str, elapsed: float) -> None:
        """Close the compute phase at ``elapsed`` virtual seconds and trace it."""
        start, end = self._sim.scheduler.end_phase(self._sim_task, phase, elapsed)
        self._sim.obs.tracer.add_span(
            phase, "phase", self.coordinator_id, start, end, parent=self._sim_span
        )


class TFCommitCoordinator(SimScheduledRounds):
    """The designated coordinator driving TFCommit rounds.

    The coordinator is itself an untrusted database server with additional
    responsibilities during termination (Section 4.1); it participates in
    every round as a cohort via the same network messages as everyone else.
    """

    def _wire_outcomes(self, result: BlockCommitResult) -> Dict[str, Dict]:
        """Outcomes carry their proof: the block's digest and its co-sign."""
        digest = result.block.signing_digest() if result.block is not None else None
        cosign = result.block.cosign if result.block is not None else None
        return {
            outcome.txn_id: outcome.to_wire(block_digest=digest, cosign=cosign)
            for outcome in result.outcomes
        }

    # -- the protocol ----------------------------------------------------------------

    def commit_batch(self, batch: Sequence[Tuple[Transaction, Envelope]]) -> BlockCommitResult:
        """Run one full TFCommit round over ``batch`` and return the result."""
        transactions = [txn for txn, _ in batch]
        validate_batch(transactions)
        client_requests = [envelope for _, envelope in batch]
        timing = TimingBreakdown(num_txns=len(transactions))
        faults = self.server.faults
        self._begin_sim_block(transactions)

        # Phase 1+2: <GetVote, SchAnnouncement> / <Vote, SchCommitment>.
        # Block assembly (and hence encoding the transactions) happens here,
        # on the coordinator, when the get_vote message is built; its compute
        # is charged to the "aggregate" phase entry together with the vote
        # aggregation below, keeping every second of coordinator work in
        # exactly one phase entry.
        assembly_watch = Stopwatch()
        partial_block = self._make_partial_block(transactions)
        partial_block.signing_digest()
        assembly_elapsed = assembly_watch.elapsed()
        votes = self._broadcast_phase(
            "get_vote",
            MessageType.GET_VOTE,
            {"block": partial_block, "client_requests": client_requests},
            timing,
        )
        unreachable = [resp for resp in votes.values() if resp.get("unreachable")]
        refused = [
            resp
            for resp in votes.values()
            if resp.get("ok") is False and not resp.get("unreachable")
        ]
        if unreachable or refused:
            # A cohort crashed before or during the vote, or refused the
            # proposal outright (e.g. it already moved to a newer view): the
            # block cannot be co-signed by the full signer set, so the round
            # fails and its transactions are retried (liveness, not safety --
            # nobody is accused).  When the *coordinator itself* is the
            # crashed party, the cohorts must keep their armed round state:
            # it is exactly what the view change collects and re-proposes, so
            # no ROUND_FAILED release is broadcast on its behalf.
            timing.coordinator_time += self._sim.effective_compute(
                "aggregate", assembly_elapsed
            )
            return self._failed_result(
                transactions,
                timing,
                partial_block,
                abort_reasons=[],
                refusals=unreachable + refused,
                culprits=[],
                notify_cohorts=not self._self_unreachable(unreachable),
            )

        # Phase 3: <null, SchChallenge> -- aggregate votes into the block.
        self._begin_compute_phase("aggregate")
        coordinator_watch = Stopwatch()
        faults.observe_phase(
            "coordinate", partial_block.height, tuple(t.txn_id for t in transactions)
        )
        decision = BlockDecision.COMMIT
        abort_reasons: List[str] = []
        roots: Dict[str, bytes] = {}
        commitments: Dict[str, Point] = {}
        for server_id, vote in votes.items():
            commitments[server_id] = decompress_point(vote["commitment"])
            if vote["involved"]:
                if vote["decision"] == BlockDecision.ABORT.value:
                    decision = BlockDecision.ABORT
                    if vote["abort_reason"]:
                        abort_reasons.append(f"{server_id}: {vote['abort_reason']}")
                elif vote["root"] is not None:
                    # A malicious coordinator can record a bogus root for a
                    # victim (Scenario 2) or drop it from the block entirely
                    # (returning None), producing a malformed commit block.
                    recorded = faults.fake_root_for(server_id, vote["root"])
                    if recorded is not None:
                        roots[server_id] = recorded
            timing.mht_time = max(timing.mht_time, vote["mht_time"])
            timing.mht_hashes += vote["mht_hashes"]
        if decision is BlockDecision.ABORT:
            # Aborted blocks must be missing at least one involved root
            # (Section 4.3.2); drop the roots of servers that voted abort.
            roots = {
                server_id: root
                for server_id, root in roots.items()
                if votes[server_id]["decision"] == BlockDecision.COMMIT.value
            }
        block = partial_block.with_decision(decision, roots)
        crypto_watch = Stopwatch()
        aggregate_commitment = aggregate_points(commitments.values())
        challenge = compute_challenge(aggregate_commitment, block.signing_digest())
        self._obs_crypto("aggregate_commitments", crypto_watch.elapsed())
        aggregate_elapsed = self._sim.effective_compute(
            "aggregate", assembly_elapsed + coordinator_watch.elapsed()
        )
        timing.coordinator_time += aggregate_elapsed
        timing.phases["aggregate"] = aggregate_elapsed
        self._end_compute_phase("aggregate", aggregate_elapsed)

        # Phase 4: <null, SchResponse>.
        if faults.equivocate() and decision is BlockDecision.COMMIT:
            responses = self._equivocate_challenge(
                block, aggregate_commitment, challenge, timing
            )
        else:
            responses = self._broadcast_phase(
                "challenge",
                MessageType.CHALLENGE,
                {
                    "challenge": challenge,
                    "aggregate_commitment": aggregate_commitment.encode(),
                    "block": block,
                },
                timing,
            )
        refusals = [resp for resp in responses.values() if not resp["ok"]]
        if refusals:
            unreachable = [resp for resp in refusals if resp.get("unreachable")]
            return self._failed_result(
                transactions, timing, block, abort_reasons, refusals, [],
                notify_cohorts=not self._self_unreachable(unreachable),
            )

        # Phase 5: <Decision, null> -- aggregate the collective signature.
        coordinator_watch = Stopwatch()
        response_scalars = {sid: resp["response"] for sid, resp in responses.items()}
        crypto_watch = Stopwatch()
        cosign = CollectiveSignature(
            challenge=challenge,
            response=aggregate_scalars(response_scalars.values()),
            signer_ids=tuple(sorted(response_scalars)),
        )
        self._obs_crypto("aggregate_responses", crypto_watch.elapsed())
        final_block = block.with_cosign(cosign)
        if set(cosign.signer_ids) != set(self.server_ids):
            raise ProtocolInvariantError(
                f"collective signature covers {sorted(cosign.signer_ids)} "
                f"but the round's cohort set is {sorted(self.server_ids)}"
            )
        public_keys = self.network.public_key_directory()
        crypto_watch = Stopwatch()
        verified = cosi_verify(cosign, final_block.signing_digest(), public_keys)
        self._obs_crypto("cosi_verify", crypto_watch.elapsed())
        if not verified:
            # Lemma 4: the coordinator checks partial signatures to identify
            # exactly which server(s) sent bogus cryptographic values.
            culprits = identify_faulty_signers(
                commitments, response_scalars, challenge, public_keys
            )
            self._record_finalize_time(timing, coordinator_watch)
            return self._failed_result(
                transactions, timing, block, abort_reasons, [], culprits
            )
        self._record_finalize_time(timing, coordinator_watch)
        return self._decide(final_block, transactions, timing, abort_reasons)

    # -- deployment hooks ----------------------------------------------------------------

    def _make_partial_block(self, transactions: Sequence[Transaction]) -> Block:
        """Phase-1 block construction: chained onto the coordinator's log.

        The scaled per-group coordinator overrides this to build group blocks
        whose chain metadata the ordering service assigns later.
        """
        return make_partial_block(
            height=self.server.log.height,
            transactions=transactions,
            previous_hash=self.server.log.head_hash,
            view=self.view,
        )

    def _deliver_block(self, result: BlockCommitResult) -> None:
        """Phase 5 delivery: broadcast the decision to every cohort and
        record the per-server failure responses.

        The scaled per-group coordinator overrides this to publish the
        co-signed group block to the ordering service instead, which
        delivers the globally chained stream to all servers.
        """
        decisions = self._broadcast_phase(
            "decision", MessageType.DECISION, {"block": result.block}, result.timing,
            kind=KIND_TERMINAL,
        )
        result.refusals = [resp for resp in decisions.values() if not resp.get("ok")]

    # -- helpers -------------------------------------------------------------------------

    def _record_finalize_time(self, timing: TimingBreakdown, watch: Stopwatch) -> None:
        """Charge the phase-5 coordinator work (signature aggregation and
        co-sign verification) to both ``coordinator_time`` and a ``finalize``
        phase entry so :attr:`TimingBreakdown.total` accounts for it."""
        elapsed = self._sim.effective_compute("finalize", watch.elapsed())
        timing.coordinator_time += elapsed
        timing.phases["finalize"] = timing.phases.get("finalize", 0.0) + elapsed
        self._begin_compute_phase("finalize")
        self._end_compute_phase("finalize", elapsed)

    def _equivocate_challenge(
        self,
        commit_block: Block,
        aggregate_commitment: Point,
        challenge: int,
        timing: TimingBreakdown,
    ) -> Dict[str, Dict]:
        """Fault injection: send a commit block to one half and an abort block to the other.

        This reproduces Figure 8 (Case 1: the same challenge is sent to both
        groups).  Correct cohorts in the abort group detect that the
        challenge does not correspond to the block they received and refuse
        to respond, so the round cannot produce a valid signature.

        The split payload still travels through :func:`timed_exchange`: a
        cohort crashing mid-challenge becomes a synthesised unreachable
        refusal (not an exception through the equivocating coordinator), and
        the per-recipient delivery order stays a model-checker branch point.
        """
        abort_block = commit_block.with_decision(BlockDecision.ABORT, {})
        half = len(self.server_ids) // 2 or 1
        commit_group = set(self.server_ids[:half])

        def payload_for(server_id: str) -> Dict:
            block = commit_block if server_id in commit_group else abort_block
            return {
                "challenge": challenge,
                "aggregate_commitment": aggregate_commitment.encode(),
                "block": block,
            }

        return timed_exchange(
            self.network,
            self._latency,
            self.coordinator_id,
            self.server_ids,
            MessageType.CHALLENGE,
            payload_for,
            timing,
            "challenge",
            sim=self._sim,
            task=self._sim_task,
            span=self._sim_span,
        )

    def _self_unreachable(self, unreachable: List[Dict]) -> bool:
        """Whether the coordinator's *own* server is among the silent peers."""
        return any(
            resp.get("server_id") == self.coordinator_id for resp in unreachable
        )

    def _failed_result(
        self,
        transactions: Sequence[Transaction],
        timing: TimingBreakdown,
        block: Optional[Block],
        abort_reasons: List[str],
        refusals: List[Dict],
        culprits: List[str],
        notify_cohorts: bool = True,
    ) -> BlockCommitResult:
        reasons = [r.get("reason", "") for r in refusals] or abort_reasons
        # Detection events: whatever made this round fail (a silent peer, a
        # refusing cohort, an identified faulty signer) becomes a trace
        # instant so the fault campaign's injections can be matched against
        # the protocol's detections on one timeline.
        obs = self._sim.obs
        now = self._sim.clock.now
        for culprit in culprits:
            obs.metrics.counter("faults.culprits_identified")
            obs.tracer.instant(
                f"detect:faulty-signer:{culprit}", "fault-detect", culprit, now
            )
        for refusal in refusals:
            peer = refusal.get("server_id", "?")
            event = "unreachable" if refusal.get("unreachable") else "refusal"
            obs.metrics.counter(f"faults.detected_{event}")
            obs.tracer.instant(
                f"detect:{event}:{peer}",
                "fault-detect",
                str(peer),
                now,
                reason=refusal.get("reason", ""),
            )
        if (
            block is not None
            and notify_cohorts
            and not mutation_enabled("pr3-round-failed-leak")
        ):
            # The round will never see a decision; tell the cohorts to drop
            # the state (witness nonce, speculative root) they buffered for
            # it, so failed rounds do not leak RoundState forever.  A crashed
            # cohort (possibly the very reason the round failed) is skipped:
            # it lost its round state with the rest of its volatile memory.
            # When the coordinator itself died (``notify_cohorts=False``) the
            # release is deliberately *not* sent: the armed round state is
            # what the surviving cohorts hand the view change for re-proposal.
            self._release_cohorts(block)
        failed_at = self._end_sim_block("failed")
        outcomes = [
            TxnOutcome(
                txn_id=txn.txn_id,
                status="failed",
                reason="; ".join(filter(None, reasons)),
                decided_at=failed_at,
            )
            for txn in transactions
        ]
        result = BlockCommitResult(
            status="failed",
            block=None,
            outcomes=outcomes,
            timing=timing,
            abort_reasons=abort_reasons,
            refusals=refusals,
            culprits=culprits,
        )
        self.results.append(result)
        return result
