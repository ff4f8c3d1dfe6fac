"""The commitment layer of a database server: the cohort side of TFCommit.

This module implements the per-phase behaviour of a cohort in TFCommit
(Section 4.3.1) and, for the baseline comparison of Section 6.1, the cohort
side of plain Two-Phase Commit:

* ``handle_get_vote`` -- <Vote, SchCommitment>: verify the coordinator's
  request and the encapsulated client request(s), compute the Schnorr
  commitment, locally validate the transactions touching this shard, and (if
  voting commit) compute the in-memory Merkle root reflecting the block's
  writes.
* ``handle_challenge`` -- <null, SchResponse>: check that the completed block
  is consistent with what this cohort voted (its own root is recorded
  verbatim, the decision matches the presence/absence of roots), recompute
  the Schnorr challenge from the block actually received, and produce the
  Schnorr response.
* ``handle_decision`` -- <Decision, null>: verify the collective signature on
  the finalised block, append it to the tamper-proof log, and apply the
  writes to the datastore.

Every handler answers with its row's reply form (:mod:`repro.net.forms`) or a
:class:`~repro.net.forms.Refusal`, and measures its own compute time and
reports it in either; the benchmark harness uses those measurements for
simulated-time latency accounting (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Collection, Dict, FrozenSet, List, Optional, Tuple, Union

from repro.common.errors import ServerCrashed, ValidationError
from repro.common.types import ServerId
from repro.core.rounds import ROUND_TIMEOUT_S
from repro.crypto.cosi import CoSiWitness, compute_challenge
from repro.crypto.group import decompress_point
from repro.crypto.keys import KeyPair, PublicKey
from repro.ledger.block import Block, BlockDecision
from repro.ledger.log import TransactionLog, verify_block_cosign
from repro.net.forms import (
    Applied,
    ChallengeResponse,
    FrontierCertificate,
    FrontierReport,
    PrepareVote,
    Proposal,
    Refusal,
    Released,
    VoteResult,
)
from repro.obs.timing import Stopwatch
from repro.server.faults import FaultPolicy
from repro.storage.apply import block_local_writes, block_store_commits
from repro.storage.datastore import DataStore
from repro.txn.occ import OccValidator
from repro.txn.transaction import Transaction


class CohortStatus(Enum):
    """Where an armed round stands on one cohort (DESIGN.md section 10)."""

    VOTED = "voted"  # answered GET_VOTE / PREPARE; the witness nonce is unused
    CHALLENGED = "challenged"  # answered CHALLENGE: the nonce is spent
    RELEASED = "released"  # dropped from the table (terminal)


#: What a cohort lets its coordinator -- an untrusted peer -- do to a round.
#: A message asking for anything else is *refused*, never an exception.  A
#: ``voted`` round may be re-armed (the same coordinator retrying the same
#: log position); a ``challenged`` one may not, and answers no second
#: challenge: its nonce already produced a response, and a second response
#: under another challenge would hand the coordinator this cohort's key.
COHORT_TRANSITIONS: Dict[CohortStatus, FrozenSet[CohortStatus]] = {
    CohortStatus.VOTED: frozenset(CohortStatus),
    CohortStatus.CHALLENGED: frozenset({CohortStatus.RELEASED}),
    CohortStatus.RELEASED: frozenset(),
}


@dataclass
class RoundState:
    """Per-block state a cohort keeps between TFCommit phases.

    Keyed by :meth:`~repro.ledger.block.Block.round_key` -- the height for
    classic blocks, the terminated transaction set for dynamic-group blocks
    (whose height is assigned later by the ordering service).

    The round timer of the view-change protocol lives here: ``deadline`` is
    armed (virtual clock + :data:`~repro.core.rounds.ROUND_TIMEOUT_S`) when
    the cohort first sees the round's ``GET_VOTE``/``PREPARE`` and refreshed
    on each later phase message.  A round past its deadline whose coordinator
    has been deposed is *stalled*: the cohort hands its block and client
    requests to the view change for re-proposal.
    """

    witness: Optional[CoSiWitness]
    involved: bool
    local_decision: BlockDecision
    block: Block
    #: Monotone per-cohort registration counter, used to expire abandoned
    #: group rounds (whose placeholder height carries no ordering).
    generation: int
    #: Who drove this round (the ``GET_VOTE``/``PREPARE`` envelope's sender).
    coordinator: Optional[ServerId]
    #: Virtual time after which the round counts as stalled.
    deadline: float
    reported_root: Optional[bytes] = None
    status: CohortStatus = CohortStatus.VOTED
    #: The signed client requests encapsulated in the proposal, kept so a
    #: successor coordinator can re-verify and re-propose the round.
    client_requests: Tuple = field(default_factory=tuple)


class CommitmentLayer:
    """Cohort-side commit logic for one database server."""

    #: A round still undecided after this many later rounds started is
    #: abandoned (its coordinator died or went silent without ROUND_FAILED).
    ROUND_STATE_TTL = 64

    def __init__(
        self,
        server_id: ServerId,
        keypair: KeyPair,
        store: DataStore,
        log: TransactionLog,
        clock,
        obs,
        faults: Optional[FaultPolicy] = None,
        on_block_applied=None,
    ) -> None:
        """``clock`` is the deployment's virtual clock (it arms the round
        timers), ``obs`` its observability bundle (storage metrics)."""
        self.server_id = server_id
        self._keypair = keypair
        self._store = store
        self._log = log
        self._clock = clock
        self._obs = obs
        self._faults = faults or FaultPolicy()
        self._validator = OccValidator(store)
        self._rounds: Dict[tuple, RoundState] = {}
        self._round_generation = 0
        #: Highest coordinator view this cohort has accepted, per group
        #: (``None`` keys the classic full-cluster deployment).  Proposals
        #: from an older view are refused: a deposed coordinator cannot keep
        #: driving rounds after its group moved on.
        self._group_views: Dict[Optional[Tuple[ServerId, ...]], int] = {}
        #: Durability hook: called with each block after it is appended and
        #: applied, so the server can persist it to its state store.
        self._on_block_applied = on_block_applied

    def _enter(self, phase: str, block: Optional[Block] = None) -> Stopwatch:
        """Every handler's first steps: start its compute timer, tell the
        fault policy where the protocol is (a phase of ``block``'s round, or
        of a view change at the log's head), and crash here if it says so."""
        watch = Stopwatch()
        if block is not None:
            self._faults.observe_phase(
                phase, block.height, tuple(t.txn_id for t in block.transactions)
            )
        else:
            self._faults.observe_phase(phase, self._log.height, ())
        if self._faults.crash_now():
            raise ServerCrashed(f"{self.server_id} crashed (injected fault)")
        return watch

    def _obs_mht(self, hashes: int, seconds: float) -> None:
        """Report one Merkle sweep's size and timing."""
        if hashes:
            self._obs.metrics.counter("storage.mht_hashes", float(hashes))
            self._obs.metrics.observe("storage.mht_sweep_hashes", float(hashes))
            self._obs.metrics.counter("storage.mht_s", seconds)

    def current_view(self, group: Optional[Tuple[ServerId, ...]]) -> int:
        """The highest view this cohort accepted for ``group``."""
        return self._group_views.get(tuple(group) if group is not None else None, 0)

    @property
    def log(self) -> TransactionLog:
        return self._log

    @property
    def store(self) -> DataStore:
        return self._store

    @property
    def faults(self) -> FaultPolicy:
        return self._faults

    def set_faults(self, faults: FaultPolicy) -> None:
        self._faults = faults

    # -- helpers -----------------------------------------------------------------

    def _local_items(self, txn: Transaction) -> bool:
        return any(item in self._store for item in txn.items_accessed())

    def _local_writes(self, transactions) -> Dict[str, object]:
        """Writes from the batch that land on this shard, latest timestamp wins."""
        return block_local_writes(transactions, self._store)

    def _validate(self, block: Block) -> Tuple[BlockDecision, str]:
        """OCC-validate the transactions touching this shard: the local vote."""
        if not self._faults.skip_validation():
            for txn in block.transactions:
                if self._local_items(txn):
                    outcome = self._validator.validate(txn)
                    if outcome.abort:
                        return BlockDecision.ABORT, outcome.reason()
        return BlockDecision.COMMIT, ""

    # -- the round table: one way in, one way out -----------------------------------

    def _refuse_proposal(
        self, block: Block, watch: Stopwatch, chained: bool = False
    ) -> Optional[Refusal]:
        """The refusal for a ``GET_VOTE``/``PREPARE`` this cohort will not
        vote on (``None``: it will): the proposal's view is one its group
        already moved past -- honouring a deposed coordinator would let two
        coordinators drive rounds concurrently -- it would re-arm a round
        whose status forbids that (:data:`COHORT_TRANSITIONS`), or (a
        ``chained`` proposal: TFCommit's) it is for another log position than
        the next one."""
        state = self._rounds.get(block.round_key())
        if block.view < self.current_view(block.group):
            reason = (
                f"proposal view {block.view} is below this cohort's current view "
                f"{self.current_view(block.group)}"
            )
        elif state is not None and CohortStatus.VOTED not in COHORT_TRANSITIONS[state.status]:
            reason = f"round {block.round_key()} is {state.status.value}: it cannot be re-armed"
        elif (
            chained
            and block.group is None
            and block.height != self._log.height
            and self._faults.maintains_log_integrity()
        ):
            # A server that doctored its own log (truncation) is out of sync
            # by construction; it keeps participating, and the audit catches
            # the short log instead.  Group blocks carry placeholder chain
            # metadata (the ordering service assigns the real height), so
            # the check does not apply to them.
            reason = (
                f"partial block height {block.height} does not extend local log "
                f"of height {self._log.height}"
            )
        else:
            return None
        return Refusal(self.server_id, reason, watch.elapsed())

    def _arm(
        self,
        block: Block,
        witness: Optional[CoSiWitness],
        involved: bool,
        decision: BlockDecision,
        coordinator: Optional[ServerId],
        client_requests: Tuple,
        root: Optional[bytes] = None,
    ) -> None:
        """Register the round this cohort just voted on and arm its timer."""
        self._round_generation += 1
        self._rounds[block.round_key()] = RoundState(
            witness=witness,
            involved=involved,
            local_decision=decision,
            block=block,
            generation=self._round_generation,
            coordinator=coordinator,
            deadline=self._clock.now + ROUND_TIMEOUT_S,
            reported_root=root,
            client_requests=tuple(client_requests),
        )

    def _release(self, key: tuple) -> Optional[RoundState]:
        """Drop a round's state -- the one way out of the table, whoever asks:
        a decision, an ordered block, ``ROUND_FAILED``, expiry, a new view."""
        state = self._rounds.pop(key, None)
        if state is not None:
            state.status = CohortStatus.RELEASED
        return state

    def pending_round_count(self) -> int:
        """How many rounds this cohort is currently buffering state for."""
        return len(self._rounds)

    def protocol_state(self) -> Tuple[list, list]:
        """Its view per group and, per buffered round, its local decision and
        involvement; sorted, so the order rounds arrived in does not show."""
        views = sorted((repr(group), view) for group, view in self._group_views.items())
        rounds = [(repr(k), r.local_decision.value, r.involved) for k, r in self._rounds.items()]
        return views, sorted(rounds)

    def _expire_stale_rounds(self) -> None:
        """Defensive cleanup for rounds a (crashed or malicious) coordinator
        never terminated: classic rounds below the log height can no longer
        receive a decision that appends, and any round (group rounds
        included, whose placeholder height carries no ordering) that is
        still undecided ``ROUND_STATE_TTL`` registrations later is
        abandoned."""
        expiry_generation = self._round_generation - self.ROUND_STATE_TTL
        stale = [
            key
            for key, state in self._rounds.items()
            if (key[0] == "height" and state.block.height < self._log.height)
            or state.generation <= expiry_generation
        ]
        for key in stale:
            self._release(key)

    def handle_round_failed(self, round_key: tuple) -> Released:
        """Release the state of a round its coordinator abandoned.

        Rounds that fail at the challenge phase (refusals, bad co-sign) never
        receive a decision, so without this notification the cohort's
        :class:`RoundState` -- witness nonce, speculative root -- would leak
        forever.
        """
        return Released(int(self._release(tuple(round_key)) is not None))

    # -- TFCommit phase 2: <Vote, SchCommitment> ----------------------------------

    def handle_get_vote(
        self,
        partial_block: Block,
        force_abort_reason: str = "",
        coordinator: Optional[ServerId] = None,
        client_requests: Tuple = (),
    ) -> Union[VoteResult, Refusal]:
        """Validate the partial block and produce this cohort's vote.

        Every server (involved or not) computes a Schnorr commitment because
        every server co-signs the block; only involved servers validate and
        report a Merkle root (Section 4.3.1).  ``force_abort_reason`` is set
        by the server front-end when the encapsulated client request failed
        signature verification: the cohort still co-signs (the abort must be
        signed too) but votes abort.

        A proposal this cohort will not vote on (:meth:`_refuse_proposal`)
        is answered with a refusal instead of a vote.
        """
        watch = self._enter("vote", partial_block)
        self._expire_stale_rounds()
        refusal = self._refuse_proposal(partial_block, watch, chained=True)
        if refusal is not None:
            return refusal
        witness = CoSiWitness(self.server_id, self._keypair)
        witness.on_announcement(partial_block.signing_digest())
        commitment = self._faults.corrupt_commitment(witness.commit())

        involved = any(self._local_items(txn) for txn in partial_block.transactions)
        decision, abort_reason = BlockDecision.COMMIT, ""
        root: Optional[bytes] = None
        mht_time = 0.0
        mht_hashes = 0
        if force_abort_reason:
            decision, abort_reason = BlockDecision.ABORT, force_abort_reason
        elif involved:
            decision, abort_reason = self._validate(partial_block)
            if decision is BlockDecision.COMMIT:
                mht_watch = Stopwatch()
                speculative_root, mht_hashes = self._store.speculative_root(
                    self._local_writes(partial_block.transactions)
                )
                mht_time = mht_watch.elapsed()
                self._obs_mht(mht_hashes, mht_time)
                root = self._faults.corrupt_root(speculative_root)

        self._arm(
            partial_block, witness, involved, decision, coordinator, client_requests, root
        )
        return VoteResult(
            server_id=self.server_id,
            involved=involved,
            decision=decision.value,
            commitment=commitment.encode(),
            root=root,
            compute_time=watch.elapsed(),
            mht_time=mht_time,
            mht_hashes=mht_hashes,
            abort_reason=abort_reason,
        )

    # -- TFCommit phase 4: <null, SchResponse> ------------------------------------

    def handle_challenge(
        self, challenge: int, aggregate_commitment: bytes, block: Block
    ) -> Union[ChallengeResponse, Refusal]:
        """Check the completed block and produce the Schnorr response.

        A correct cohort refuses to respond when:

        * the round is not one it voted on and has not answered yet
          (:data:`COHORT_TRANSITIONS`: no challenge before the vote, and no
          second response from a spent nonce);
        * the block's decision is inconsistent with the recorded roots
          (commit must carry a root from every involved server, abort must be
          missing at least one -- Section 4.3.2);
        * its own root in the block differs from the one it sent in its vote
          (Scenario 2, incorrect block creation);
        * the challenge does not equal ``H(X_sch || block)`` for the block it
          actually received (Lemma 5, equivocation detection).
        """
        watch = self._enter("challenge", block)
        state = self._rounds.get(block.round_key())

        def refusal(reason: str) -> Refusal:
            return Refusal(self.server_id, reason, watch.elapsed())

        if state is None or state.witness is None:
            return refusal(f"challenge for a round this cohort never voted on: {block.round_key()}")
        if CohortStatus.CHALLENGED not in COHORT_TRANSITIONS[state.status]:
            return refusal(f"round {block.round_key()} already answered its challenge")
        state.block = block
        # The coordinator made progress; give it a fresh round-timer window.
        state.deadline = self._clock.now + ROUND_TIMEOUT_S

        if not self._faults.collude_on_challenge():
            involved_servers = set(block.roots)
            if block.decision is BlockDecision.COMMIT and state.involved:
                if self.server_id not in involved_servers:
                    return refusal("commit block is missing this cohort's root")
                if state.reported_root is not None and block.roots[self.server_id] != state.reported_root:
                    return refusal("coordinator recorded a different root than this cohort sent")
            if block.decision is BlockDecision.COMMIT and state.local_decision is BlockDecision.ABORT:
                return refusal("coordinator decided commit although this cohort voted abort")

            expected_challenge = compute_challenge(
                decompress_point(aggregate_commitment), block.signing_digest()
            )
            if expected_challenge != challenge:
                return refusal("challenge does not correspond to the received block")

        state.status = CohortStatus.CHALLENGED
        response = self._faults.corrupt_response(state.witness.respond(challenge))
        return ChallengeResponse(response, watch.elapsed())

    # -- TFCommit phase 5: <Decision, null>, and the ordered stream (Section 4.6) ----

    def handle_decision(
        self, block: Block, public_keys: Dict[str, PublicKey], servers: Collection[ServerId]
    ) -> Union[Applied, Refusal]:
        """Verify the finalised block, log it, and apply its writes.

        The one terminal path of the classic phase-5 decision broadcast and
        of the scaled ordered-stream delivery, where every server -- group
        member or not -- receives the block.  Whatever the delivery path,
        the block must pass the ledger's co-sign rule, and then its chain
        rule, which ``TransactionLog.append`` applies (both in
        :mod:`repro.ledger.log`).  Servers that co-signed it release the
        round state they buffered; a decision for a round this server holds
        no state for is accepted all the same (``state_known: False``): the
        co-sign is its authority.
        """
        watch = self._enter("decision", block)
        state = self._release(block.round_key())

        reason = verify_block_cosign(block, public_keys, servers)
        if not reason:
            try:
                self._log.append(block, verify_link=self._faults.maintains_log_integrity())
            except ValidationError as exc:
                # A replayed or out-of-order decision: refused like any other
                # message this peer should not have sent, not raised.
                reason = str(exc)
        if reason:
            return Refusal(self.server_id, reason, watch.elapsed())
        if block.is_commit:
            mht_watch = Stopwatch()
            self._obs_mht(self._apply_block(block), mht_watch.elapsed())
        if self._on_block_applied is not None:
            self._on_block_applied(block)
        corruption = self._faults.post_commit_corruption()
        for item_id, value in corruption.items():
            if item_id in self._store:
                self._store.corrupt(item_id, value)
        self._faults.tamper_log(self._log)
        return Applied(state is not None, watch.elapsed())

    def _apply_block(self, block: Block) -> int:
        """Apply the whole block's write-set to the local shard in one sweep.

        The commits are handed to the datastore as a batch so the Merkle
        tree's dirty paths are recomputed once per block rather than once per
        transaction (see DESIGN.md on batched MHT accounting).
        """
        commits = []
        for commit_ts, local_writes, local_reads in block_store_commits(block, self._store):
            local_writes = self._faults.filter_applied_writes(local_writes)
            if local_writes or local_reads:
                commits.append((commit_ts, local_writes, local_reads))
        if not commits:
            return 0
        return self._store.apply_batch(commits)

    # -- coordinator failover (view change) --------------------------------------------

    def _stalled_rounds(
        self, group: Optional[Tuple[ServerId, ...]], deposed: ServerId
    ) -> List[RoundState]:
        """Armed rounds the deposed coordinator drove and then went silent on.

        A round is stalled once its timer expired: the cohort voted, buffered
        state, and no decision or explicit ROUND_FAILED ever arrived.
        ``group=None`` matches every round the deposed coordinator drove,
        whatever its group: in the scaled deployment one coordinator leads
        many dynamic groups, and a single view change deposes it from all of
        them.
        """
        return [
            state
            for state in self._rounds.values()
            if state.coordinator == deposed
            and (group is None or state.block.group == tuple(group))
            and self._clock.now >= state.deadline
        ]

    def handle_view_change(
        self,
        group: Optional[Tuple[ServerId, ...]],
        deposed: ServerId,
        new_view: int,
    ) -> FrontierReport:
        """Answer a successor's ``VIEW_CHANGE`` solicitation.

        The cohort reports its commit frontier as a
        :class:`~repro.net.forms.FrontierCertificate` (the successor treats it
        as an untrusted claim and re-verifies the head block's co-sign) plus
        every stalled round the deposed coordinator left behind, so the
        successor can re-propose from the maximum certified frontier.
        """
        watch = self._enter("view-change")
        head = self._log.last_block()
        certificate = FrontierCertificate(
            server_id=self.server_id,
            view=self.current_view(group),
            height=self._log.height,
            head_hash=self._log.head_hash,
            head=head.to_wire() if head is not None else None,
        )
        stalled = tuple(
            Proposal(state.block, state.client_requests)
            for state in self._stalled_rounds(group, deposed)
        )
        return FrontierReport(certificate, stalled, watch.elapsed())

    def handle_new_view(
        self,
        group: Optional[Tuple[ServerId, ...]],
        deposed: ServerId,
        new_view: int,
    ) -> Released:
        """Install a new coordinator view for ``group``.

        Bumps the view gate (older proposals are refused from here on) and
        releases the round state of every pre-``new_view`` round of the group:
        the successor re-proposes the stalled ones under fresh round keys, so
        the old entries can never receive a legitimate decision again.
        """
        watch = self._enter("new-view")
        key = tuple(group) if group is not None else None
        #: Every group key the announcement fences.  The named group always;
        #: plus, when deposing across all groups (``group=None``), the group
        #: of every round the deposed coordinator left armed here -- so the
        #: successor's re-proposals (at ``new_view``) pass the gate while the
        #: deposed coordinator's zombies (below it) are refused.
        bumped = {key}
        dropped = 0
        for round_key, state in list(self._rounds.items()):
            block = state.block
            if state.coordinator != deposed or block.view >= new_view:
                continue
            if group is not None and block.group != key:
                continue
            if block.group is not None:
                bumped.add(block.group)
            self._release(round_key)
            dropped += 1
        for bumped_key in bumped:
            self._group_views[bumped_key] = max(
                self._group_views.get(bumped_key, 0), new_view
            )
        return Released(dropped, watch.elapsed())

    # -- 2PC baseline (Section 6.1) --------------------------------------------------

    def handle_prepare(
        self,
        block: Block,
        coordinator: Optional[ServerId] = None,
        client_requests: Tuple = (),
    ) -> Union[PrepareVote, Refusal]:
        """2PC prepare: validate the transactions touching this shard and vote.

        Arms the same round timer as TFCommit's vote phase: a 2PC cohort that
        prepared a round and never hears the decision has state the view
        change must collect (the paper's baseline enjoys the same liveness
        fix, keeping the comparison apples-to-apples).
        """
        watch = self._enter("vote", block)
        self._expire_stale_rounds()
        refusal = self._refuse_proposal(block, watch)
        if refusal is not None:
            return refusal
        involved = any(self._local_items(txn) for txn in block.transactions)
        decision, reason = self._validate(block) if involved else (BlockDecision.COMMIT, "")
        self._arm(block, None, involved, decision, coordinator, client_requests)
        return PrepareVote(involved, decision.value, reason, watch.elapsed())

    def handle_2pc_decision(self, block: Block) -> Applied:
        """2PC decision: append the (unsigned) block and apply writes if commit."""
        watch = self._enter("decision", block)
        state = self._release(block.round_key())
        self._log.append(block, verify_link=False)
        if block.is_commit:
            self._apply_block(block)
        if self._on_block_applied is not None:
            self._on_block_applied(block)
        return Applied(state is not None, watch.elapsed())
