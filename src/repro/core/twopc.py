"""The trusted baseline: Two-Phase Commit (Section 6.1).

The paper contrasts TFCommit with its trusted counterpart 2PC to quantify the
overhead of operating in an untrusted setting.  This implementation mirrors
the structure of :class:`~repro.core.tfcommit.TFCommitCoordinator` -- same
batching, same block-sequential execution, same timing model -- but performs
none of the cryptographic work: no Merkle roots, no collective signing, and
only two communication rounds (prepare/vote and decision).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.check.mutations import mutation_enabled
from repro.core.tfcommit import (
    BlockCommitResult,
    SimScheduledRounds,
    TimingBreakdown,
    TxnOutcome,
    validate_batch,
)
from repro.ledger.block import Block, BlockDecision, make_partial_block
from repro.net.message import Envelope, MessageType
from repro.obs.timing import Stopwatch
from repro.sim.scheduler import KIND_TERMINAL
from repro.txn.transaction import Transaction


class TwoPhaseCommitCoordinator(SimScheduledRounds):
    """Classic 2PC over the same servers, clients, and network as TFCommit.

    The front-end (queueing, batching, flushing) is the shared base's; 2PC
    outcomes carry no proof, so the base's plain wire form applies.
    """

    def commit_batch(self, batch: Sequence[Tuple[Transaction, Envelope]]) -> BlockCommitResult:
        """One 2PC round: prepare/vote then decision."""
        transactions = [txn for txn, _ in batch]
        validate_batch(transactions)
        timing = TimingBreakdown(num_txns=len(transactions))
        self._begin_sim_block(transactions)

        assembly_watch = Stopwatch()
        block = make_partial_block(
            height=self.server.log.height,
            transactions=transactions,
            previous_hash=self.server.log.head_hash,
            view=self.view,
        )
        assembly_elapsed = assembly_watch.elapsed()

        votes = self._broadcast_phase(
            "prepare",
            MessageType.PREPARE,
            {"block": block, "client_requests": [envelope for _, envelope in batch]},
            timing,
        )
        unreachable = [resp for resp in votes.values() if resp.get("unreachable")]
        refused = [
            resp
            for resp in votes.values()
            if resp.get("ok") is False and not resp.get("unreachable")
        ]
        if (unreachable or refused) and not mutation_enabled("pr7-2pc-vote-keyerror"):
            # A cohort crashed mid-round (its synthesised response carries no
            # vote fields) or refused a stale-view proposal: fail the round
            # exactly like TFCommit's phase-1 unreachable check instead of
            # KeyError-ing on ``vote["involved"]`` in the tally below.
            timing.coordinator_time += self._sim.effective_compute(
                "aggregate", assembly_elapsed
            )
            return self._failed_result(
                transactions, timing, block, unreachable + refused
            )

        self._begin_compute_phase("aggregate")
        coordinator_watch = Stopwatch()
        decision = BlockDecision.COMMIT
        abort_reasons: List[str] = []
        for server_id, vote in votes.items():
            if mutation_enabled("pr7-2pc-vote-keyerror"):
                # The pre-fix tally: a bare subscript that KeyErrors on the
                # synthesized response of a cohort that died mid-round.
                involved = vote["involved"]
            else:
                involved = vote.get("involved")
            if involved and vote["decision"] == BlockDecision.ABORT.value:
                decision = BlockDecision.ABORT
                if vote["reason"]:
                    abort_reasons.append(f"{server_id}: {vote['reason']}")
        final_block = block.with_decision(decision, {})
        aggregate_elapsed = self._sim.effective_compute(
            "aggregate", assembly_elapsed + coordinator_watch.elapsed()
        )
        timing.coordinator_time += aggregate_elapsed
        timing.phases["aggregate"] = aggregate_elapsed
        self._end_compute_phase("aggregate", aggregate_elapsed)

        return self._decide(final_block, transactions, timing, abort_reasons)

    # -- helpers ---------------------------------------------------------------------------

    def _deliver_block(self, result: BlockCommitResult) -> None:
        """Phase 2: broadcast the decision (nothing a cohort answers matters)."""
        self._broadcast_phase(
            "decision", MessageType.COMMIT_DECISION, {"block": result.block},
            result.timing, kind=KIND_TERMINAL,
        )

    def _failed_result(
        self,
        transactions: Sequence[Transaction],
        timing: TimingBreakdown,
        block: Block,
        refusals: List[Dict],
    ) -> BlockCommitResult:
        """Fail the round without a decision (mirrors TFCommit's shape).

        Cohorts that saw the ``PREPARE`` are told to release their armed
        round state -- unless the coordinator itself is the crashed party, in
        which case the state is kept for the view change to collect.
        """
        self_down = any(
            resp.get("unreachable") and resp.get("server_id") == self.coordinator_id
            for resp in refusals
        )
        if not self_down:
            self.network.broadcast(
                self.coordinator_id,
                self.server_ids,
                MessageType.ROUND_FAILED,
                {"round_key": block.round_key()},
                skip_unreachable=True,
            )
        failed_at = self._end_sim_block("failed")
        outcomes = [
            TxnOutcome(
                txn_id=txn.txn_id,
                status="failed",
                reason="; ".join(
                    filter(None, (resp.get("reason", "") for resp in refusals))
                ),
                decided_at=failed_at,
            )
            for txn in transactions
        ]
        result = BlockCommitResult(
            status="failed",
            block=None,
            outcomes=outcomes,
            timing=timing,
            refusals=refusals,
        )
        self.results.append(result)
        return result
