"""A commit round as one object with a declared lifecycle, and its driver.

What TFCommit (:mod:`repro.core.tfcommit`) and the 2PC baseline
(:mod:`repro.core.twopc`) share: the result types, the batch builder, the
simulated-time rule of one phase (:func:`timed_exchange`), the
:class:`Round` a coordinator drives through :data:`ROUND_TRANSITIONS`, and
the coordinator front-end :class:`SimScheduledRounds`, whose
``commit_batch`` is the one template ``_open`` -> ``_run`` -> ``_close``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.check.choices import choose_order
from repro.check.mutations import mutation_enabled
from repro.common.encoding import canonical_encode
from repro.common.errors import ProtocolError, ProtocolInvariantError, UnreachableError
from repro.common.timestamps import Timestamp
from repro.common.types import ServerId
from repro.core.grouping import ServerGroup
from repro.ledger.block import Block, make_group_partial_block, make_partial_block
from repro.net.forms import Refusal, RoundFailed, Termination, TxnOutcome, read_reply
from repro.net.latency import LatencyModel
from repro.net.message import Envelope, MessageType
from repro.net.network import Network
from repro.sim.context import SimContext
from repro.sim.scheduler import KIND_BROADCAST, KIND_COMPUTE, BlockTask
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


@dataclass
class BlockCommitResult:
    """Everything TFCommit produces for one block."""

    status: str  # "committed", "aborted", or "failed"
    block: Optional[Block]
    outcomes: List[TxnOutcome]
    timing: TimingBreakdown
    abort_reasons: List[str] = field(default_factory=list)
    refusals: List[Refusal] = field(default_factory=list)
    culprits: List[str] = field(default_factory=list)

    @property
    def committed(self) -> bool:
        return self.status == "committed"


class ItemClaims:
    """The items a batch accesses and the items it writes.

    A transaction conflicts with the batch -- with at least one of its
    members, by :meth:`Transaction.conflicts_with` -- exactly when its writes
    meet ``accessed`` or its reads meet ``written``.  So one check costs
    O(the transaction's items), whatever the batch's size.
    """

    __slots__ = ("accessed", "written")

    def __init__(self) -> None:
        self.accessed: set = set()
        self.written: set = set()

    def clash(self, txn: Transaction) -> bool:
        return not (
            self.accessed.isdisjoint([entry.item_id for entry in txn.write_set])
            and self.written.isdisjoint([entry.item_id for entry in txn.read_set])
        )

    def add(self, txn: Transaction) -> None:
        writes = [entry.item_id for entry in txn.write_set]
        self.written.update(writes)
        self.accessed.update(writes)
        self.accessed.update([entry.item_id for entry in txn.read_set])


class BatchBuilder:
    """Packs pending transactions into non-conflicting batches (Section 4.6).

    "The coordinator collects and inserts a set of non-conflicting client
    generated transactions and orders them within a single block" -- the
    builder walks the pending queue in arrival order and greedily selects
    transactions that neither conflict with the batch's :class:`ItemClaims`
    nor carry a commit timestamp at or below the latest committed timestamp.
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
        claims = ItemClaims()
        for txn, envelope in pending:
            if latest_committed_ts is not None and txn.commit_ts <= latest_committed_ts:
                stale.append((txn, envelope))
                continue
            if len(batch) >= self.txns_per_block or claims.clash(txn):
                remaining.append((txn, envelope))
                continue
            claims.add(txn)
            batch.append((txn, envelope))
        pending[:] = remaining
        return batch, stale


#: Failure reason for transactions whose commit timestamp fell at or below
#: the latest committed timestamp.  Clients match on it to decide whether a
#: failed transaction is retryable with a refreshed clock.
STALE_TIMESTAMP_REASON = "stale commit timestamp"


def _stale_outcome(txn: Transaction) -> TxnOutcome:
    return TxnOutcome(txn.txn_id, "failed", reason=STALE_TIMESTAMP_REASON)


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
    a recoverable protocol condition.  The check runs against the batch's
    :class:`ItemClaims`; only a clash scans the earlier transactions, to name
    the first conflicting pair.
    """
    if not transactions:
        raise ProtocolInvariantError("commit_batch called with an empty batch")
    claims = ItemClaims()
    for index, txn in enumerate(transactions):
        if claims.clash(txn):
            earlier = next(e for e in transactions[:index] if txn.conflicts_with(e))
            raise ProtocolInvariantError(
                f"batch contains conflicting transactions "
                f"{earlier.txn_id} and {txn.txn_id} (BatchBuilder contract)"
            )
        claims.add(txn)


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
    request_for,
    timing: TimingBreakdown,
    phase: str,
    sim: SimContext,
    task: Optional[BlockTask] = None,
    kind: str = KIND_BROADCAST,
    timeout: float = ROUND_TIMEOUT_S,
    span: Optional[int] = None,
) -> Tuple[Dict[str, Any], List[Refusal]]:
    """Send one phase's (possibly per-recipient) message and charge ``timing``.

    Returns ``(replies, refusals)``: the recipients that answered with the
    row's reply form (:func:`~repro.net.forms.read_reply`), by id, and --
    apart, so that a tally can only ever iterate answers -- a
    :class:`~repro.net.forms.Refusal` for each one that did not.

    ``request_for`` maps each recipient to its request -- the honest phases
    send every cohort the same one (see :func:`timed_broadcast`), while the
    equivocation fault injection sends different blocks to different halves.
    Routing *every* per-recipient send through here keeps three behaviours in
    one place: the ``choose_order`` branch point the model checker explores,
    the refusal standing in for a silent peer, and the simulated-time
    accounting.

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
    handling it -- becomes a refusal marked ``unreachable``, built here and
    nowhere else, instead of an exception: losing a cohort mid-round is a
    liveness event the round must observe and fail on, not a crash of the
    coordinator.  No reply ever travels from a dead peer, so the phase
    charges the sender the full ``timeout`` wait for it rather than a
    phantom ``outbound + 0 + inbound`` round trip.

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
    answers: Dict[str, Any] = {}
    # The request last spliced and its bytes, held while this phase lasts: the
    # honest phases hand every cohort one object, which is spliced once; an
    # equivocator's requests are distinct objects, each spliced on its own.
    spliced: Optional[Tuple[Any, bytes]] = None
    for recipient in recipients:
        request = request_for(recipient)
        if spliced is None or request is not spliced[0]:
            spliced = (request, canonical_encode(request))
        try:
            answers[recipient] = read_reply(
                message_type,
                recipient,
                network.send(
                    sender, recipient, message_type, request, payload_bytes=spliced[1]
                ),
            )
        except UnreachableError as exc:
            answers[recipient] = Refusal(recipient, str(exc), unreachable=True)
    inbound = {recipient: latency.sample() for recipient in recipients}
    refusals = [answer for answer in answers.values() if type(answer) is Refusal]
    silent = {refusal.server_id for refusal in refusals if refusal.unreachable}
    slowest = slowest_net = 0.0
    round_trips: Dict[str, float] = {}
    for recipient in recipients:
        if recipient in silent:
            # The sender waits out the round timer on a silent peer; the
            # wait is pure network idle time, no compute ever ran.
            round_trip = net = timeout
        else:
            compute = sim.effective_compute(phase, answers[recipient].compute_time)
            round_trip = outbound[recipient] + compute + inbound[recipient]
            net = outbound[recipient] + inbound[recipient]
        round_trips[recipient] = round_trip
        if round_trip >= slowest:
            slowest = round_trip
            slowest_net = net
    timing.phases[phase] = slowest
    timing.network_time += slowest_net
    obs = sim.obs
    obs.metrics.counter(f"phase.{phase}.count")
    obs.metrics.observe(f"phase.{phase}.s", slowest)
    for recipient in recipients:
        if recipient in silent:
            obs.metrics.counter("net.unreachable")
        else:
            obs.metrics.observe(f"net.rtt.{phase}_s", round_trips[recipient])
    if task is not None:
        phase_start, phase_end = sim.scheduler.end_phase(task, phase, slowest)
        if obs.tracing:
            phase_span = obs.tracer.add_span(
                phase,
                "phase",
                sender,
                phase_start,
                phase_end,
                parent=span,
                status="timeout" if silent else "ok",
            )
            for recipient in recipients:
                obs.tracer.add_span(
                    f"rpc:{message_type.value}",
                    "rpc",
                    recipient,
                    phase_start,
                    phase_start + round_trips[recipient],
                    parent=phase_span,
                    status="unreachable" if recipient in silent else "ok",
                )
    replies = {
        recipient: answer for recipient, answer in answers.items() if type(answer) is not Refusal
    }
    return replies, refusals


def timed_broadcast(
    network: Network,
    latency: LatencyModel,
    sender: str,
    recipients: Sequence[str],
    message_type: MessageType,
    request,
    timing: TimingBreakdown,
    phase: str,
    sim: SimContext,
    **options,
) -> Tuple[Dict[str, Any], List[Refusal]]:
    """Broadcast one phase's message to every recipient (same request each).

    Thin wrapper over :func:`timed_exchange`; see there for ``options``
    (``task``, ``kind``, ``timeout``, ``span``), what is returned, and the
    timing and silent-peer contract.
    """
    return timed_exchange(
        network, latency, sender, recipients, message_type,
        lambda _recipient: request, timing, phase, sim, **options,
    )


class RoundStatus(Enum):
    """Where a round stands on its coordinator (DESIGN.md section 10)."""

    OPEN = "open"  # admitted to the timeline, no phase answered yet
    VOTED = "voted"  # every cohort answered GET_VOTE / PREPARE
    CHALLENGED = "challenged"  # every cohort answered CHALLENGE (TFCommit only)
    DECIDED = "decided"  # the decision went out to the cohorts
    PUBLISHED = "published"  # the co-signed block went to the ordering service
    DELIVERED = "delivered"  # ... and the ordered stream delivered it
    FAILED = "failed"  # no decision will ever exist


_S = RoundStatus
#: The whole lifecycle; :meth:`Round.advance` refuses anything else.  A status
#: without a successor is terminal: the round holds nothing any more, because
#: the only way into one is through :meth:`SimScheduledRounds._close`.
ROUND_TRANSITIONS: Dict[RoundStatus, FrozenSet[RoundStatus]] = {
    _S.OPEN: frozenset({_S.VOTED, _S.FAILED}),
    _S.VOTED: frozenset({_S.CHALLENGED, _S.DECIDED, _S.FAILED}),
    _S.CHALLENGED: frozenset({_S.DECIDED, _S.PUBLISHED, _S.FAILED}),
    _S.PUBLISHED: frozenset({_S.DELIVERED}),
    _S.DECIDED: frozenset(),
    _S.DELIVERED: frozenset(),
    _S.FAILED: frozenset(),
}


@dataclass
class Round:
    """One commit round, from its batch to its outcome.

    Everything "the current round" means lives here -- not in coordinator
    fields -- so a coordinator can hand a round over (to the ordering
    service's delivery) and start the next one without bookkeeping.
    """

    coordinator: ServerId
    transactions: List[Transaction]
    client_requests: List[Envelope]
    #: Who votes (and co-signs): every server, or with a ``group`` its members.
    cohorts: List[ServerId]
    group: Optional[ServerGroup]
    view: int
    timing: TimingBreakdown
    #: The round's window on the virtual timeline and its open trace span.
    task: BlockTask
    span: Optional[int]
    status: RoundStatus = RoundStatus.OPEN
    #: The proposal as far as the round took it: partial, decided, co-signed.
    block: Optional[Block] = None
    #: The block of the ordered stream carrying this round's decision: its
    #: chained copy once delivered -- or, for a suppressed duplicate
    #: re-proposal, the original publication.
    decision: Optional[Block] = None
    #: Virtual time the round ended; ``None`` while published, not delivered.
    decided_at: Optional[float] = None
    abort_reasons: List[str] = field(default_factory=list)
    refusals: List[Refusal] = field(default_factory=list)
    culprits: List[str] = field(default_factory=list)
    result: Optional[BlockCommitResult] = None

    def advance(self, status: RoundStatus) -> None:
        if status not in ROUND_TRANSITIONS[self.status]:
            raise ProtocolInvariantError(
                f"{self.task.label}: illegal round transition "
                f"{self.status.value} -> {status.value}"
            )
        self.status = status

    def fail(self, refusals: Sequence[Refusal] = (), culprits: Sequence[str] = ()) -> None:
        """No decision will exist: a peer was silent or refused (liveness,
        nobody is accused), or ``culprits`` sent bogus co-signing values."""
        self.refusals, self.culprits = list(refusals), list(culprits)
        self.advance(RoundStatus.FAILED)

    @property
    def label(self) -> str:
        """The round's own conclusion, as timeline, trace and metrics name it."""
        if self.status is RoundStatus.FAILED:
            return "failed"
        return "committed" if self.block.is_commit else "aborted"

    @property
    def leader_silent(self) -> bool:
        """Whether the coordinator's *own* server is among the silent peers."""
        return any(
            refusal.unreachable and refusal.server_id == self.coordinator
            for refusal in self.refusals
        )

    def report(self) -> BlockCommitResult:
        """(Re)write :attr:`result` from where the round stands -- the one
        builder of outcomes, for every exit and for the ordered delivery."""
        decision = self.decision or self.block
        if self.status is RoundStatus.FAILED:
            status, decision, height = "failed", None, None
            reasons = [refusal.reason for refusal in self.refusals] or self.abort_reasons
            reason = "; ".join(filter(None, reasons))
        else:
            # The stream's block is the decision -- also for a duplicate
            # re-proposal, whatever its own (suppressed) round concluded.
            status = "committed" if decision.is_commit else "aborted"
            reason = "" if decision.is_commit else "; ".join(self.abort_reasons)
            # Until the stream delivers a published block its outcomes carry
            # ``None`` rather than the misleading placeholder height 0.
            height = None if self.status is RoundStatus.PUBLISHED else decision.height
        proof = (None, None)  # what a client verifies itself; 2PC blocks carry none
        if decision is not None and decision.cosign is not None:
            proof = (decision.signing_digest(), decision.cosign)
        fields = dict(
            status=status,
            block=decision,
            outcomes=[
                TxnOutcome(txn.txn_id, status, height, reason, self.decided_at, *proof)
                for txn in self.transactions
            ],
            timing=self.timing,
            abort_reasons=self.abort_reasons,
            refusals=self.refusals,
            culprits=self.culprits,
        )
        if self.result is None:
            self.result = BlockCommitResult(**fields)
        else:
            vars(self.result).update(fields)
        return self.result


class SimScheduledRounds:
    """A coordinator's front-end, and its rounds on the virtual timeline.

    The base of the TFCommit coordinator and the 2PC baseline.  Both queue
    ``end_transaction`` requests, cut them into batches, and report outcomes
    the same way (they differ only in :meth:`_run`); both chain blocks at
    aggregation time and deliver decisions in order, so the same dependency
    rules govern how far their rounds pipeline; and a coordinator failover
    needs the same small queue/frontier surface from either.
    """

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

    def on_end_transaction(self, envelope: Envelope) -> Termination:
        """Handle a client's ``end_transaction`` request.

        Stale requests (commit timestamp at or below the latest committed
        timestamp) are failed, as specified in Section 4.3.1, with the
        frontier a retrying client refreshes its clock from.  Otherwise the
        transaction is queued; once a full batch is available the coordinator
        runs its commit protocol and returns the outcomes.
        """
        txn: Transaction = envelope.payload.transaction
        if txn.commit_ts <= self._latest_committed_ts:
            return Termination(False, (_stale_outcome(txn),), self._latest_committed_ts)
        self._pending.append((txn, envelope))
        if len(self._pending) >= self.batch_builder.txns_per_block:
            return self.flush()
        return Termination(queued=True)

    def flush(self) -> Termination:
        """Commit every pending transaction (possibly across several blocks);
        a transaction an earlier block of the flush made stale fails."""
        outcomes: List[TxnOutcome] = []
        while self._pending:
            batch, stale = self.batch_builder.take_batch(
                self._pending, self._latest_committed_ts
            )
            outcomes.extend(_stale_outcome(txn) for txn, _ in stale)
            if not batch:
                # Every remaining transaction was stale; nothing left to commit.
                break
            outcomes.extend(self.commit_batch(batch).outcomes)
        return Termination(False, tuple(outcomes), self._latest_committed_ts)

    # -- the round template --------------------------------------------------------

    def commit_batch(self, batch: Sequence[Tuple[Transaction, Envelope]]) -> BlockCommitResult:
        """Run one round of the commit protocol over ``batch``."""
        round = self._open(batch)
        self._run(round)
        return self._close(round)

    def _open(self, batch: Sequence[Tuple[Transaction, Envelope]]) -> Round:
        """Admit a round to the virtual timeline.

        The task carries the batch's read/write footprint and commit-
        timestamp range so the scheduler can decide how far this round may
        overlap earlier in-flight rounds (see the dependency rules in
        :mod:`repro.sim.scheduler`).  A classic block chains onto the log at
        proposal time; a group's does not -- the ordering service assigns
        its chain metadata later -- so the scheduler is told the group (the
        round's cohort set) instead.
        """
        transactions = [txn for txn, _ in batch]
        validate_batch(transactions)
        cohorts, group, view = self._cohorts_for(transactions)
        self._sim_blocks += 1
        reads, writes = footprint(transactions)
        stamps = [txn.commit_ts for txn in transactions]
        task = self._sim.scheduler.begin_block(
            resource=self.coordinator_id,
            label=f"{self.coordinator_id}/round-{self._sim_blocks}",
            read_items=reads,
            write_items=writes,
            min_commit_ts=min(stamps).as_tuple(),
            max_commit_ts=max(stamps).as_tuple(),
            chained=group is None,
            group_members=None if group is None else frozenset(cohorts),
        )
        span = self._sim.obs.tracer.open_span(
            task.label,
            "round",
            self.coordinator_id,
            task.ready_at,
            txns=[txn.txn_id for txn in transactions],
            view=view,
        )
        return Round(
            coordinator=self.coordinator_id,
            transactions=transactions,
            client_requests=[envelope for _, envelope in batch],
            cohorts=cohorts,
            group=group,
            view=view,
            timing=TimingBreakdown(num_txns=len(transactions)),
            task=task,
            span=span,
        )

    def _cohorts_for(self, transactions: Sequence[Transaction]):
        """``(cohorts, group, view)`` of a round over ``transactions``: here
        the full cluster, ungrouped, in the coordinator's own view."""
        return self.server_ids, None, self.view

    def _run(self, round: Round) -> None:
        """The protocol's phases: leave ``round`` decided, published or failed."""
        raise NotImplementedError

    def _close(self, round: Round) -> BlockCommitResult:
        """The one exit of every round, whatever its conclusion.

        Called when :meth:`_run` returns -- and once more, by the ordered
        delivery, for a round that left here ``published``.  Whatever the
        round still holds is released here and nowhere else: the state its
        cohorts armed (``ROUND_FAILED``; a decision or ordered block
        releases it otherwise), its window on the virtual timeline and its
        trace span (both stay open while the block awaits the stream).
        """
        status, sim = round.status, self._sim
        if ROUND_TRANSITIONS[status] and status is not RoundStatus.PUBLISHED:
            raise ProtocolInvariantError(
                f"{round.task.label}: closed while still {status.value}"
            )
        label = round.label
        if (
            status is RoundStatus.FAILED
            and not round.leader_silent
            and not mutation_enabled("pr3-round-failed-leak")
        ):
            # The round will never see a decision; tell the cohorts to drop
            # the state (witness nonce, speculative root) they buffered for
            # it.  When the coordinator's own server is the silent peer the
            # release is deliberately *not* sent: the armed round state is
            # what the surviving cohorts hand the view change to re-propose.
            self._release_cohorts(round)
        if status is not RoundStatus.PUBLISHED:
            round.decided_at = sim.scheduler.end_block(round.task, status=label)
            sim.obs.tracer.close_span(round.span, round.decided_at, status=label)
        result = round.report()
        if status is not RoundStatus.DELIVERED:
            sim.obs.metrics.counter(f"rounds.{label}")
            if label == "committed":
                self.observe_frontier(round.block.max_commit_ts)
            self.results.append(result)
        return result

    def _release_cohorts(self, round: Round) -> None:
        """Tell the round's (reachable) cohorts to drop the state they armed
        for it.  A crashed cohort (possibly the very reason the round
        failed) is skipped: it lost its round state with the rest of its
        volatile memory."""
        self.network.broadcast(
            self.coordinator_id,
            round.cohorts,
            MessageType.ROUND_FAILED,
            RoundFailed(round.block.round_key()),
        )

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

    # -- what a protocol's phases are made of ----------------------------------------

    def _partial_block(self, round: Round) -> Block:
        """Phase-1 block construction: chained onto the coordinator's log, or
        -- for a group -- with the chain metadata left to the ordering service."""
        if round.group is not None:
            return make_group_partial_block(
                round.transactions, group_members=round.cohorts, view=round.view
            )
        return make_partial_block(
            height=self.server.log.height,
            transactions=round.transactions,
            previous_hash=self.server.log.head_hash,
            view=round.view,
        )

    def _obs_crypto(self, op: str, seconds: float) -> None:
        """Charge one coordinator-side crypto operation to the crypto
        micro-timer (op count + wall seconds, kept out of virtual time)."""
        self._sim.obs.metrics.counter(f"crypto.{op}.ops")
        self._sim.obs.metrics.counter(f"crypto.{op}.s", seconds)

    def _broadcast_phase(
        self,
        round: Round,
        phase: str,
        message_type: MessageType,
        request,
        kind: str = KIND_BROADCAST,
    ) -> Tuple[Dict[str, Any], List[Refusal]]:
        """Send one phase's message to every cohort via :func:`timed_broadcast`."""
        return timed_broadcast(
            self.network,
            self._latency,
            self.coordinator_id,
            round.cohorts,
            message_type,
            request,
            round.timing,
            phase,
            sim=self._sim,
            task=round.task,
            kind=kind,
            span=round.span,
        )

    def _begin_compute_phase(self, round: Round, phase: str) -> None:
        """Open a coordinator compute phase (aggregate/finalize) on the
        round's task, *before* the work runs: fault hooks inside it fire at
        the phase's virtual start."""
        self._sim.scheduler.begin_phase(round.task, phase, kind=KIND_COMPUTE)

    def _end_compute_phase(self, round: Round, phase: str, elapsed: float) -> None:
        """Close the compute phase at ``elapsed`` virtual seconds and trace it."""
        start, end = self._sim.scheduler.end_phase(round.task, phase, elapsed)
        self._sim.obs.tracer.add_span(
            phase, "phase", self.coordinator_id, start, end, parent=round.span
        )
