"""The trusted baseline: Two-Phase Commit (Section 6.1).

The paper contrasts TFCommit with its trusted counterpart 2PC to quantify the
overhead of operating in an untrusted setting.  This implementation mirrors
the structure of :class:`~repro.core.tfcommit.TFCommitCoordinator` -- same
batching, same block-sequential execution, same timing model -- but performs
none of the cryptographic work: no Merkle roots, no collective signing, and
only two communication rounds (prepare/vote and decision).
"""

from __future__ import annotations

from repro.check.mutations import mutation_enabled
from repro.core.rounds import Round, RoundStatus, SimScheduledRounds
from repro.ledger.block import BlockDecision
from repro.net.forms import DecidedBlock, Proposal
from repro.net.message import MessageType
from repro.obs.timing import Stopwatch
from repro.sim.scheduler import KIND_TERMINAL


class TwoPhaseCommitCoordinator(SimScheduledRounds):
    """Classic 2PC over the same servers, clients, and network as TFCommit.

    The front-end (queueing, batching, flushing) and the round's exits are
    the shared base's; 2PC outcomes carry no proof, so the base's plain wire
    form applies.
    """

    def _run(self, round: Round) -> None:
        """One 2PC round: prepare/vote then decision."""
        timing = round.timing
        assembly_watch = Stopwatch()
        round.block = block = self._partial_block(round)
        assembly_elapsed = assembly_watch.elapsed()

        votes, refusals = self._broadcast_phase(
            round,
            "prepare",
            MessageType.PREPARE,
            Proposal(block, tuple(round.client_requests)),
        )
        if refusals and not mutation_enabled("pr7-2pc-vote-keyerror"):
            # A cohort crashed mid-round or refused a stale-view proposal:
            # fail the round exactly like TFCommit's phase-1 check.  (The
            # mutation is PR 7's bug as it can still be made: the votes that
            # did arrive are tallied as if they were everyone's.)
            return round.fail(refusals)
        round.advance(RoundStatus.VOTED)

        self._begin_compute_phase(round, "aggregate")
        coordinator_watch = Stopwatch()
        decision = BlockDecision.COMMIT
        abort_reasons = round.abort_reasons
        for server_id, vote in votes.items():
            if vote.involved and vote.decision == BlockDecision.ABORT.value:
                decision = BlockDecision.ABORT
                if vote.reason:
                    abort_reasons.append(f"{server_id}: {vote.reason}")
        round.block = block.with_decision(decision, {})
        aggregate_elapsed = self._sim.effective_compute(
            "aggregate", assembly_elapsed + coordinator_watch.elapsed()
        )
        timing.phases["aggregate"] = aggregate_elapsed
        self._end_compute_phase(round, "aggregate", aggregate_elapsed)

        # Phase 2: broadcast the decision (nothing a cohort answers matters).
        self._broadcast_phase(
            round, "decision", MessageType.COMMIT_DECISION, DecidedBlock(round.block),
            kind=KIND_TERMINAL,
        )
        round.advance(RoundStatus.DECIDED)
