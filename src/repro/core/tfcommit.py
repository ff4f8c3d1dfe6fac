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
:class:`repro.server.commitment.CommitmentLayer`); the round object, the
batch builder (Section 4.6) and the timing model it shares with the 2PC
baseline live in :mod:`repro.core.rounds`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.common.errors import ProtocolInvariantError
from repro.core.rounds import (
    Round,
    RoundStatus,
    SimScheduledRounds,
    timed_exchange,
)
from repro.crypto.cosi import (
    CollectiveSignature,
    aggregate_points,
    aggregate_scalars,
    compute_challenge,
    cosi_verify,
    identify_faulty_signers,
)
from repro.crypto.group import Point, decompress_point
from repro.ledger.block import Block, BlockDecision
from repro.net.forms import Challenge, ChallengeResponse, DecidedBlock, Proposal, Refusal
from repro.net.message import MessageType
from repro.obs.timing import Stopwatch
from repro.sim.scheduler import KIND_TERMINAL


class TFCommitCoordinator(SimScheduledRounds):
    """The designated coordinator driving TFCommit rounds.

    The coordinator is itself an untrusted database server with additional
    responsibilities during termination (Section 4.1); it participates in
    every round as a cohort via the same network messages as everyone else.
    """

    # -- the protocol ----------------------------------------------------------------

    def _run(self, round: Round) -> None:
        """The five TFCommit phases over ``round``."""
        timing, faults = round.timing, self.server.faults

        # Phase 1+2: <GetVote, SchAnnouncement> / <Vote, SchCommitment>.
        # Block assembly (and hence encoding the transactions) happens here,
        # on the coordinator, when the get_vote message is built; its compute
        # is charged to the "aggregate" phase entry together with the vote
        # aggregation below, keeping every second of coordinator work in
        # exactly one phase entry.
        assembly_watch = Stopwatch()
        round.block = partial_block = self._partial_block(round)
        partial_block.signing_digest()
        assembly_elapsed = assembly_watch.elapsed()
        ballots, refusals = self._broadcast_phase(
            round,
            "get_vote",
            MessageType.GET_VOTE,
            Proposal(partial_block, tuple(round.client_requests)),
        )
        if refusals:
            # A cohort crashed before or during the vote, refused the
            # proposal outright (e.g. it already moved to a newer view), or
            # answered with something that is not a vote: the block cannot be
            # co-signed by the full signer set, so the round fails and its
            # transactions are retried (liveness, not safety -- nobody is
            # accused).
            return self._fail(round, refusals)
        round.advance(RoundStatus.VOTED)

        # Phase 3: <null, SchChallenge> -- aggregate votes into the block.
        self._begin_compute_phase(round, "aggregate")
        coordinator_watch = Stopwatch()
        faults.observe_phase("coordinate", partial_block.height)
        decision = BlockDecision.COMMIT
        abort_reasons = round.abort_reasons
        roots: Dict[str, bytes] = {}
        commitments: Dict[str, Point] = {}
        for server_id, vote in ballots.items():
            commitments[server_id] = decompress_point(vote.commitment)
            if vote.involved:
                if vote.decision == BlockDecision.ABORT.value:
                    decision = BlockDecision.ABORT
                    if vote.abort_reason:
                        abort_reasons.append(f"{server_id}: {vote.abort_reason}")
                elif vote.root is not None:
                    # A malicious coordinator can record a bogus root for a
                    # victim (Scenario 2) or drop it from the block entirely
                    # (returning None), producing a malformed commit block.
                    recorded = faults.fake_root_for(server_id, vote.root)
                    if recorded is not None:
                        roots[server_id] = recorded
            timing.mht_time = max(timing.mht_time, vote.mht_time)
            timing.mht_hashes += vote.mht_hashes
        if decision is BlockDecision.ABORT:
            # Aborted blocks must be missing at least one involved root
            # (Section 4.3.2); drop the roots of servers that voted abort.
            roots = {
                server_id: root
                for server_id, root in roots.items()
                if ballots[server_id].decision == BlockDecision.COMMIT.value
            }
        round.block = block = partial_block.with_decision(decision, roots)
        crypto_watch = Stopwatch()
        aggregate_commitment = aggregate_points(commitments.values())
        challenge = compute_challenge(aggregate_commitment, block.signing_digest())
        self._obs_crypto("aggregate_commitments", crypto_watch.elapsed())
        aggregate_elapsed = self._sim.effective_compute(
            "aggregate", assembly_elapsed + coordinator_watch.elapsed()
        )
        timing.phases["aggregate"] = aggregate_elapsed
        self._end_compute_phase(round, "aggregate", aggregate_elapsed)

        # Phase 4: <null, SchResponse>.
        if faults.equivocate() and decision is BlockDecision.COMMIT:
            responses, refusals = self._equivocate_challenge(
                round, aggregate_commitment, challenge
            )
        else:
            responses, refusals = self._broadcast_phase(
                round,
                "challenge",
                MessageType.CHALLENGE,
                Challenge(challenge, aggregate_commitment.encode(), block),
            )
        if refusals:
            return self._fail(round, refusals)
        round.advance(RoundStatus.CHALLENGED)

        # Phase 5: <Decision, null> -- aggregate the collective signature.
        coordinator_watch = Stopwatch()
        response_scalars = {sid: reply.response for sid, reply in responses.items()}
        crypto_watch = Stopwatch()
        cosign = CollectiveSignature(
            challenge=challenge,
            response=aggregate_scalars(response_scalars.values()),
            signer_ids=tuple(sorted(response_scalars)),
        )
        self._obs_crypto("aggregate_responses", crypto_watch.elapsed())
        final_block = block.with_cosign(cosign)
        if set(response_scalars) != set(round.cohorts):
            raise ProtocolInvariantError(
                f"collective signature covers {sorted(response_scalars)} "
                f"but the round's cohort set is {sorted(round.cohorts)}"
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
            self._record_finalize_time(round, coordinator_watch)
            return self._fail(round, culprits=culprits)
        self._record_finalize_time(round, coordinator_watch)
        round.block = final_block
        self._deliver(round)

    # -- deployment hook -------------------------------------------------------------------

    def _deliver(self, round: Round) -> None:
        """Phase 5 delivery: broadcast the decision to every cohort and
        record the per-server failure responses.

        The scaled per-group coordinator overrides this to publish the
        co-signed group block to the ordering service instead, which
        delivers the globally chained stream to all servers.
        """
        _, round.refusals = self._broadcast_phase(
            round, "decision", MessageType.DECISION, DecidedBlock(round.block),
            kind=KIND_TERMINAL,
        )
        round.advance(RoundStatus.DECIDED)

    # -- helpers -------------------------------------------------------------------------

    def _record_finalize_time(self, round: Round, watch: Stopwatch) -> None:
        """Charge the phase-5 coordinator work (signature aggregation and
        co-sign verification) to a ``finalize`` phase entry so
        :attr:`TimingBreakdown.total` accounts for it."""
        timing = round.timing
        elapsed = self._sim.effective_compute("finalize", watch.elapsed())
        timing.phases["finalize"] = timing.phases.get("finalize", 0.0) + elapsed
        self._begin_compute_phase(round, "finalize")
        self._end_compute_phase(round, "finalize", elapsed)

    def _equivocate_challenge(
        self, round: Round, aggregate_commitment: Point, challenge: int
    ) -> Tuple[Dict[str, ChallengeResponse], List[Refusal]]:
        """Fault injection: send a commit block to one half and an abort block to the other.

        This reproduces Figure 8 (Case 1: the same challenge is sent to both
        groups).  Correct cohorts in the abort group detect that the
        challenge does not correspond to the block they received and refuse
        to respond, so the round cannot produce a valid signature.

        The split request still travels through :func:`timed_exchange`: a
        cohort crashing mid-challenge becomes an unreachable refusal (not an
        exception through the equivocating coordinator), and the
        per-recipient delivery order stays a model-checker branch point.
        """
        commit_block: Block = round.block
        abort_block = commit_block.with_decision(BlockDecision.ABORT, {})
        half = len(round.cohorts) // 2 or 1
        commit_group = set(round.cohorts[:half])

        def request_for(server_id: str) -> Challenge:
            block = commit_block if server_id in commit_group else abort_block
            return Challenge(challenge, aggregate_commitment.encode(), block)

        return timed_exchange(
            self.network,
            self._latency,
            self.coordinator_id,
            round.cohorts,
            MessageType.CHALLENGE,
            request_for,
            round.timing,
            "challenge",
            sim=self._sim,
            task=round.task,
            span=round.span,
        )

    def _fail(
        self, round: Round, refusals: Sequence[Refusal] = (), culprits: Sequence[str] = ()
    ) -> None:
        """Fail the round, tracing what made it fail.

        A silent peer, a refusing cohort, an identified faulty signer: each
        becomes a trace instant, so the fault campaign's injections can be
        matched against the protocol's detections on one timeline.
        """
        obs = self._sim.obs
        now = self._sim.clock.now
        for culprit in culprits:
            obs.metrics.counter("faults.culprits_identified")
            obs.tracer.instant(
                f"detect:faulty-signer:{culprit}", "fault-detect", culprit, now
            )
        for refusal in refusals:
            event = "unreachable" if refusal.unreachable else "refusal"
            obs.metrics.counter(f"faults.detected_{event}")
            obs.tracer.instant(
                f"detect:{event}:{refusal.server_id}",
                "fault-detect",
                refusal.server_id,
                now,
                reason=refusal.reason,
            )
        round.fail(refusals, culprits)
