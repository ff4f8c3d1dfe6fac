"""Unit tests for the cohort-side commitment layer (TFCommit phases 2, 4, 5)."""

from __future__ import annotations

import pytest

from dataclasses import fields, replace

from repro.common.timestamps import Timestamp
from repro.crypto.cosi import (
    CollectiveSignature,
    aggregate_points,
    aggregate_scalars,
    compute_challenge,
    witness_commitment,
    witness_response,
)
from repro.crypto.group import CURVE_ORDER, decompress_point, generator_multiply
from repro.crypto.keys import keypair_for
from repro.ledger.block import BlockDecision, genesis_previous_hash, make_partial_block
from repro.ledger.log import TransactionLog
from repro.net.forms import (
    Applied,
    Challenge,
    ChallengeResponse,
    DecidedBlock,
    EndTxn,
    Proposal,
    ReadItem,
    Refusal,
    RoundFailed,
    ViewChange,
    read_reply,
)
from repro.net.latency import ConstantLatency
from repro.net.message import Envelope, MessageType
from repro.net.network import Network
from repro.obs import Observability
from repro.core.rounds import ROUND_TIMEOUT_S
from repro.server.commitment import COHORT_TRANSITIONS, CohortStatus, CommitmentLayer
from repro.server.server import DatabaseServer
from repro.sim.clock import VirtualClock
from repro.sim.context import SimContext
from repro.storage.datastore import DataStore
from repro.txn.transaction import ReadSetEntry, Transaction, WriteSetEntry

from store_helpers import apply_commit

SERVER_IDS = ["s0", "s1"]


def make_cohorts(clock=None):
    cohorts = {}
    for server_id in SERVER_IDS:
        store = DataStore({f"{server_id}-item": 0})
        cohorts[server_id] = CommitmentLayer(
            server_id,
            keypair_for(server_id, seed=5),
            store,
            TransactionLog(),
            clock or VirtualClock(),
            Observability(),
        )
    return cohorts


def make_txn(item: str, counter: int = 5) -> Transaction:
    zero = Timestamp.zero()
    return Transaction(
        txn_id=f"t-{item}-{counter}",
        client_id="c0",
        commit_ts=Timestamp(counter, "c0"),
        read_set=[ReadSetEntry(item, 0, zero, zero)],
        write_set=[WriteSetEntry(item, 42)],
    )


def run_phases(cohorts, block, tamper_block_for_challenge=None):
    """Drive phases 2-4 directly against the cohort layers."""
    votes = {sid: layer.handle_get_vote(block) for sid, layer in cohorts.items()}
    roots = {sid: v.root for sid, v in votes.items() if v.involved and v.root is not None}
    decision = (
        BlockDecision.COMMIT
        if all(v.decision == "commit" for v in votes.values() if v.involved)
        else BlockDecision.ABORT
    )
    decided = block.with_decision(decision, roots)
    aggregate = aggregate_points(decompress_point(v.commitment) for v in votes.values())
    challenge = compute_challenge(aggregate, decided.body_digest())
    challenge_block = tamper_block_for_challenge or decided
    responses = {
        sid: layer.handle_challenge(challenge, aggregate.encode(), challenge_block)
        for sid, layer in cohorts.items()
    }
    return votes, decided, challenge, responses


class TestVotePhase:
    def test_involved_cohort_votes_commit_with_root(self):
        cohorts = make_cohorts()
        block = make_partial_block(0, [make_txn("s0-item")], genesis_previous_hash())
        vote = cohorts["s0"].handle_get_vote(block)
        assert vote.involved and vote.decision == "commit"
        assert vote.root is not None and vote.mht_hashes > 0

    def test_uninvolved_cohort_still_co_signs(self):
        cohorts = make_cohorts()
        block = make_partial_block(0, [make_txn("s0-item")], genesis_previous_hash())
        vote = cohorts["s1"].handle_get_vote(block)
        assert not vote.involved
        assert vote.root is None
        assert len(vote.commitment) == 33  # a Schnorr commitment is still produced

    def test_forced_abort_reason(self):
        cohorts = make_cohorts()
        block = make_partial_block(0, [make_txn("s0-item")], genesis_previous_hash())
        vote = cohorts["s0"].handle_get_vote(block, force_abort_reason="bad client signature")
        assert vote.decision == "abort"
        assert vote.abort_reason == "bad client signature"

    def test_validation_failure_votes_abort(self):
        cohorts = make_cohorts()
        apply_commit(cohorts["s0"].store, Timestamp(10, "z"), {"s0-item": 7})
        block = make_partial_block(0, [make_txn("s0-item", counter=5)], genesis_previous_hash())
        vote = cohorts["s0"].handle_get_vote(block)
        assert vote.decision == "abort"
        assert vote.abort_reason

    def test_wrong_height_refused(self):
        cohorts = make_cohorts()
        block = make_partial_block(3, [make_txn("s0-item")], genesis_previous_hash())
        answer = cohorts["s0"].handle_get_vote(block)
        assert isinstance(answer, Refusal)
        assert "does not extend local log" in answer.reason
        assert cohorts["s0"].pending_round_count() == 0


class TestChallengePhase:
    def test_honest_round_produces_responses(self):
        cohorts = make_cohorts()
        block = make_partial_block(0, [make_txn("s0-item")], genesis_previous_hash())
        _, decided, challenge, responses = run_phases(cohorts, block)
        assert all(isinstance(resp, ChallengeResponse) for resp in responses.values())

    def test_challenge_for_unknown_round_rejected(self):
        cohorts = make_cohorts()
        block = make_partial_block(0, [make_txn("s0-item")], genesis_previous_hash())
        decided = block.with_decision(BlockDecision.COMMIT, {})
        response = cohorts["s0"].handle_challenge(1, b"\x00", decided)
        assert isinstance(response, Refusal)
        assert "never voted" in response.reason
        assert cohorts["s0"].pending_round_count() == 0

    def test_cohort_detects_fake_root(self):
        # Scenario 2: the coordinator records a wrong root for a benign server.
        cohorts = make_cohorts()
        block = make_partial_block(0, [make_txn("s0-item")], genesis_previous_hash())
        votes = {sid: layer.handle_get_vote(block) for sid, layer in cohorts.items()}
        fake_roots = {"s0": b"\x00" * 32}
        decided = block.with_decision(BlockDecision.COMMIT, fake_roots)
        aggregate = aggregate_points(decompress_point(v.commitment) for v in votes.values())
        challenge = compute_challenge(aggregate, decided.body_digest())
        response = cohorts["s0"].handle_challenge(challenge, aggregate.encode(), decided)
        assert isinstance(response, Refusal)
        assert "different root" in response.reason

    def test_cohort_detects_challenge_block_mismatch(self):
        # Lemma 5 / Case 1: the challenge was computed over a different block.
        cohorts = make_cohorts()
        block = make_partial_block(0, [make_txn("s0-item")], genesis_previous_hash())
        votes = {sid: layer.handle_get_vote(block) for sid, layer in cohorts.items()}
        roots = {sid: v.root for sid, v in votes.items() if v.root is not None}
        commit_block = block.with_decision(BlockDecision.COMMIT, roots)
        abort_block = block.with_decision(BlockDecision.ABORT, {})
        aggregate = aggregate_points(decompress_point(v.commitment) for v in votes.values())
        challenge = compute_challenge(aggregate, commit_block.body_digest())
        response = cohorts["s1"].handle_challenge(challenge, aggregate.encode(), abort_block)
        assert isinstance(response, Refusal)
        assert "does not correspond" in response.reason

    def test_cohort_refuses_commit_after_voting_abort(self):
        cohorts = make_cohorts()
        apply_commit(cohorts["s0"].store, Timestamp(10, "z"), {"s0-item": 7})
        block = make_partial_block(0, [make_txn("s0-item", counter=5)], genesis_previous_hash())
        votes = {sid: layer.handle_get_vote(block) for sid, layer in cohorts.items()}
        # Malicious coordinator ignores the abort vote and claims commit,
        # forging a root for s0.
        decided = block.with_decision(BlockDecision.COMMIT, {"s0": b"\x01" * 32})
        aggregate = aggregate_points(decompress_point(v.commitment) for v in votes.values())
        challenge = compute_challenge(aggregate, decided.body_digest())
        response = cohorts["s0"].handle_challenge(challenge, aggregate.encode(), decided)
        assert isinstance(response, Refusal)


def _challenged():
    cohorts = make_cohorts()
    block = make_partial_block(0, [make_txn("s0-item")], genesis_previous_hash())
    _, decided, challenge, responses = run_phases(cohorts, block)
    assert all(isinstance(resp, ChallengeResponse) for resp in responses.values())
    return cohorts, block, decided, challenge, responses


def test_second_challenge_in_a_round_is_refused():
    """The witness nonce is a deterministic function of the round, so a
    second response under a *different* challenge (another aggregate
    commitment; it passes the ``H(X || block)`` check) hands the
    coordinator this cohort's secret key: ``x = (r1 - r2) / (c2 - c1)``."""
    cohorts, _, decided, challenge, responses = _challenged()
    other_aggregate = generator_multiply(12345)
    second_challenge = compute_challenge(other_aggregate, decided.body_digest())
    assert second_challenge != challenge
    second = cohorts["s0"].handle_challenge(
        second_challenge, other_aggregate.encode(), decided
    )
    if not isinstance(second, Refusal):
        leaked = (
            (responses["s0"].response - second.response)
            * pow(second_challenge - challenge, -1, CURVE_ORDER)
            % CURVE_ORDER
        )
        assert leaked == keypair_for("s0", seed=5).secret_scalar
        pytest.fail("two responses from one nonce: the coordinator recovered s0's key")
    assert "already answered" in second.reason
    assert cohorts["s0"].pending_round_count() == 1


class UntrustedCoordinator:
    """``s0``'s identity driving the cohort ``s1`` through its server's
    handlers, with the strongest messages a coordinator can forge:
    well-signed envelopes, the client's real signed request, challenges that
    pass ``H(X || block)`` for the block they carry, and the real co-sign
    wherever one can exist."""

    def __init__(self) -> None:
        self.network = Network(SimContext(), latency=ConstantLatency(0.0001))
        clock, obs = VirtualClock(), Observability()
        self.servers = {}
        for server_id in SERVER_IDS:
            server = DatabaseServer(
                server_id,
                keypair_for(server_id, seed=5),
                {f"{server_id}-item": 0},
                clock,
                obs,
                SERVER_IDS,
            )
            server.attach(self.network)
            self.servers[server_id] = server
            # Everyone is in view 1, so a view-0 message is a stale one.
            self.send(server_id, MessageType.NEW_VIEW, ViewChange(None, "-", 1))
        self.cohort = self.servers["s1"].commitment
        self.network.register_observer("c0", keypair_for("c0", seed=5))
        txn = make_txn("s1-item")
        #: What the client really sent ``s0``: the one thing it cannot forge.
        self.client_request = self.network.sign_envelope(
            Envelope("c0", "s0", MessageType.END_TRANSACTION, EndTxn(txn, txn.commit_ts))
        )
        self.partial = make_partial_block(0, [txn], genesis_previous_hash(), view=1)
        self.votes = {}
        self.responses = {}
        self.aggregate = generator_multiply(7)
        #: Every Schnorr response ``s1`` gave for the round's one nonce.
        self.answers = []

    def send(self, to, message_type, request):
        reply = read_reply(message_type, to, self.network.send("s0", to, message_type, request))
        if to == "s1" and isinstance(reply, ChallengeResponse):
            self.answers.append(reply.response)
        return reply

    def status(self):
        state = self.cohort._rounds.get(self.partial.round_key())
        return state.status if state is not None else None

    def arm(self, status) -> None:
        """Bring the round to ``status`` on both servers (``RELEASED``: on
        ``s1``, by ``ROUND_FAILED`` after it answered its challenge)."""
        if status is None:
            return
        get_vote = self.request(MessageType.GET_VOTE, "fresh")
        self.votes = {sid: self.send(sid, MessageType.GET_VOTE, get_vote) for sid in SERVER_IDS}
        self.aggregate = aggregate_points(
            decompress_point(vote.commitment) for vote in self.votes.values()
        )
        if status is CohortStatus.VOTED:
            return
        challenge = self.request(MessageType.CHALLENGE, "fresh")
        self.responses = {
            sid: self.send(sid, MessageType.CHALLENGE, challenge) for sid in SERVER_IDS
        }
        assert all(isinstance(r, ChallengeResponse) for r in self.responses.values())
        if status is CohortStatus.RELEASED:
            round_failed = self.request(MessageType.ROUND_FAILED, "fresh")
            assert self.send("s1", MessageType.ROUND_FAILED, round_failed).released

    def variant_of(self, block, variant):
        if variant == "stale-view":
            return replace(block, view=0)
        if variant == "wrong-round":
            return replace(block, height=1)
        return block

    def request(self, message_type, variant):
        if variant == "malformed":
            # What a sender from before the message table would put on the
            # wire: the right keys, the right values, in a dict.
            form = self.request(message_type, "fresh")
            return {field.name: getattr(form, field.name) for field in fields(form)}
        if message_type in (MessageType.GET_VOTE, MessageType.PREPARE):
            return Proposal(self.variant_of(self.partial, variant), (self.client_request,))
        roots = {sid: vote.root for sid, vote in self.votes.items() if vote.root}
        decided = self.variant_of(
            self.partial.with_decision(BlockDecision.COMMIT, roots), variant
        )
        if message_type is MessageType.ROUND_FAILED:
            return RoundFailed(decided.round_key())
        if message_type is MessageType.COMMIT_DECISION:
            return DecidedBlock(decided)
        challenge = compute_challenge(self.aggregate, decided.signing_digest())
        if message_type is MessageType.CHALLENGE:
            return Challenge(challenge, self.aggregate.encode(), decided)
        # DECISION / ORDERED_BLOCK: the real co-sign once both cohorts have
        # responded (it only verifies for the block they responded to).
        cosign = CollectiveSignature(
            challenge=challenge,
            response=aggregate_scalars(r.response for r in self.responses.values())
            if self.responses
            else 1,
            signer_ids=tuple(SERVER_IDS),
        )
        return DecidedBlock(decided.with_cosign(cosign))


ROUND_MESSAGES = (
    MessageType.GET_VOTE,
    MessageType.PREPARE,
    MessageType.CHALLENGE,
    MessageType.DECISION,
    MessageType.COMMIT_DECISION,
    MessageType.ROUND_FAILED,
    MessageType.ORDERED_BLOCK,
)


def declared_accepted(status, message_type, variant) -> bool:
    """Does the cohort act on the (last) message, or refuse it?"""
    if variant == "malformed":
        return False
    if message_type in (MessageType.ROUND_FAILED, MessageType.COMMIT_DECISION):
        # Releasing is always safe; the 2PC baseline trusts its coordinator.
        return True
    if message_type is MessageType.PREPARE:
        # ... and checks a proposal against the view gate and the table only.
        rearm = variant != "wrong-round"
        return variant != "stale-view" and not (status is CohortStatus.CHALLENGED and rearm)
    if variant in ("stale-view", "wrong-round"):
        return False
    if message_type is MessageType.GET_VOTE:
        return status is not CohortStatus.CHALLENGED
    if message_type is MessageType.CHALLENGE:
        return status is CohortStatus.VOTED and variant == "fresh"
    # A decision is believed on its co-sign, which exists once the cohort
    # answered its challenge, and applied once.
    return status in (CohortStatus.CHALLENGED, CohortStatus.RELEASED) and variant == "fresh"


@pytest.mark.parametrize(
    "variant", ["fresh", "duplicate", "stale-view", "wrong-round", "malformed"]
)
@pytest.mark.parametrize("message_type", ROUND_MESSAGES, ids=lambda m: m.value)
@pytest.mark.parametrize(
    "status", [None, *COHORT_TRANSITIONS], ids=lambda s: s.value if s else "no-round"
)
def test_the_cohort_table_against_every_message_an_untrusted_coordinator_can_send(
    status, message_type, variant
):
    """``COHORT_TRANSITIONS`` x the server's round-carrying handlers x {fresh,
    sent twice, from a deposed view, for another round, not the row's request
    form}: the cohort acts on the message (a legal transition) or refuses it
    with a reason -- it never raises, never answers a second challenge from
    its one nonce, and ``ROUND_FAILED`` always leaves nothing armed."""
    peer = UntrustedCoordinator()
    peer.arm(status)
    before = peer.status()
    assert before is (None if status is CohortStatus.RELEASED else status)

    request = peer.request(message_type, variant)
    for _ in range(2 if variant == "duplicate" else 1):
        reply = peer.send("s1", message_type, request)

    accepted = not isinstance(reply, Refusal)
    assert accepted is declared_accepted(status, message_type, variant), reply
    if not accepted:
        assert reply.reason
    after = peer.status()
    if variant == "malformed":
        assert after is before
    if before is None:
        proposal = message_type in (MessageType.GET_VOTE, MessageType.PREPARE)
        assert after is None or (after is CohortStatus.VOTED and proposal)
    else:
        assert after is before or (after or CohortStatus.RELEASED) in COHORT_TRANSITIONS[before]
    assert len(peer.answers) <= 1, "two responses from one nonce leak the cohort's key"

    for block in (peer.partial, peer.variant_of(peer.partial, variant)):
        peer.send("s1", MessageType.ROUND_FAILED, RoundFailed(block.round_key()))
    assert peer.cohort.pending_round_count() == 0


class TestUnaskedTransactions:
    """Section 4.3.1: a cohort verifies the client request encapsulated in the
    coordinator's.  It used to verify the signatures of whatever requests
    were attached and never that each transaction *had* one, so a block
    holding a transaction no client ever signed was voted ``commit``."""

    @staticmethod
    def vote_on(peer, transactions, client_requests):
        block = make_partial_block(0, transactions, genesis_previous_hash(), view=1)
        return peer.send("s1", MessageType.GET_VOTE, Proposal(block, tuple(client_requests)))

    def forged(self, client_id="c9"):
        return replace(make_txn("s1-item", counter=6), txn_id="forged", client_id=client_id)

    def test_the_clients_own_request_backs_its_transaction(self):
        peer = UntrustedCoordinator()
        vote = self.vote_on(peer, peer.partial.transactions, [peer.client_request])
        assert vote.decision == "commit" and vote.root is not None

    def test_no_request_at_all(self):
        peer = UntrustedCoordinator()
        vote = self.vote_on(peer, [self.forged()], [])
        assert vote.decision == "abort" and vote.root is None
        assert "no signed client request backs transaction forged" in vote.abort_reason

    def test_another_transactions_request_does_not_back_it(self):
        peer = UntrustedCoordinator()
        for forged in (self.forged("c9"), self.forged("c0")):
            vote = self.vote_on(
                peer, [*peer.partial.transactions, forged], [peer.client_request]
            )
            assert vote.decision == "abort" and "forged" in vote.abort_reason

    def test_a_signed_request_of_another_kind_does_not_back_it(self):
        peer = UntrustedCoordinator()
        forged = self.forged("c0")
        read = peer.network.sign_envelope(
            Envelope("c0", "s1", MessageType.READ, ReadItem(forged.txn_id, "s1-item"))
        )
        assert peer.network.verify_envelope(read)
        vote = self.vote_on(peer, [forged], [read])
        assert vote.decision == "abort" and "forged" in vote.abort_reason

    def test_the_request_must_come_from_the_transactions_client(self):
        # c1 really signs an end_transaction -- for a transaction stamped c0.
        peer = UntrustedCoordinator()
        peer.network.register_observer("c1", keypair_for("c1", seed=5))
        forged = self.forged("c0")
        request = peer.network.sign_envelope(
            Envelope("c1", "s0", MessageType.END_TRANSACTION, EndTxn(forged, forged.commit_ts))
        )
        vote = self.vote_on(peer, [forged], [request])
        assert vote.decision == "abort" and "forged" in vote.abort_reason

    def test_a_bad_client_signature_still_aborts_as_before(self):
        peer = UntrustedCoordinator()
        unsigned = replace(peer.client_request, signature=b"\x00" * 64)
        vote = self.vote_on(peer, peer.partial.transactions, [unsigned])
        assert vote.decision == "abort" and "signature verification" in vote.abort_reason


class TestCohortLifecycle:
    """One test per message a round's status makes illegal
    (``COHORT_TRANSITIONS``): each is refused -- never an exception, the
    sender is an untrusted coordinator -- and leaves the round as it was."""

    @pytest.mark.parametrize("rearm", ["handle_get_vote", "handle_prepare"])
    def test_a_challenged_round_cannot_be_rearmed(self, rearm):
        cohorts, block, _, _, _ = _challenged()
        answer = getattr(cohorts["s0"], rearm)(block)
        assert isinstance(answer, Refusal)
        assert "cannot be re-armed" in answer.reason

    def test_a_voted_round_can_be_rearmed(self):
        # The same coordinator retrying the same log position (it failed the
        # round without reaching this cohort) must not wedge the cohort.
        cohorts = make_cohorts()
        block = make_partial_block(0, [make_txn("s0-item")], genesis_previous_hash())
        first = cohorts["s0"].handle_get_vote(block)
        again = cohorts["s0"].handle_get_vote(block)
        assert again.commitment == first.commitment
        assert cohorts["s0"].pending_round_count() == 1

    def test_a_round_armed_by_prepare_answers_no_challenge(self):
        cohorts = make_cohorts()
        block = make_partial_block(0, [make_txn("s0-item")], genesis_previous_hash())
        cohorts["s0"].handle_prepare(block)
        response = cohorts["s0"].handle_challenge(1, b"\x00", block)
        assert isinstance(response, Refusal) and "never voted" in response.reason

    def test_the_same_challenge_twice_is_refused(self):
        cohorts = make_cohorts()
        block = make_partial_block(0, [make_txn("s0-item")], genesis_previous_hash())
        votes, decided, challenge, responses = run_phases(cohorts, block)
        assert isinstance(responses["s1"], ChallengeResponse)
        aggregate = aggregate_points(decompress_point(v.commitment) for v in votes.values())
        again = cohorts["s1"].handle_challenge(challenge, aggregate.encode(), decided)
        assert isinstance(again, Refusal) and "already answered" in again.reason

    def test_a_challenge_over_another_block_spends_no_nonce(self):
        """A challenge refused because it does not match the block sent with
        it leaves the round ``voted``: the matching challenge is then answered
        from the nonce the vote committed to."""
        cohorts = make_cohorts()
        block = make_partial_block(0, [make_txn("s0-item")], genesis_previous_hash())
        votes = {sid: layer.handle_get_vote(block) for sid, layer in cohorts.items()}
        roots = {sid: v.root for sid, v in votes.items() if v.root is not None}
        decided = block.with_decision(BlockDecision.COMMIT, roots)
        aggregate = aggregate_points(decompress_point(v.commitment) for v in votes.values())
        challenge = compute_challenge(aggregate, decided.signing_digest())
        other = block.with_decision(BlockDecision.ABORT, {})
        refused = cohorts["s1"].handle_challenge(challenge, aggregate.encode(), other)
        assert isinstance(refused, Refusal) and "does not correspond" in refused.reason
        answered = cohorts["s1"].handle_challenge(challenge, aggregate.encode(), decided)
        keypair = keypair_for("s1", seed=5)
        nonce, commitment = witness_commitment(keypair, block.signing_digest())
        assert commitment.encode() == votes["s1"].commitment
        assert answered.response == witness_response(keypair, nonce, challenge)

    def test_a_refused_challenge_keeps_the_voted_block_and_its_timer(self):
        """A challenge the cohort refuses is no progress: the round keeps the
        block it voted on and the deadline its vote armed, so a coordinator
        that only sends refused challenges is reported stalled on time."""
        clock = VirtualClock()
        cohorts = make_cohorts(clock)
        block = make_partial_block(0, [make_txn("s0-item")], genesis_previous_hash())
        votes = {
            sid: layer.handle_get_vote(block, coordinator="s0") for sid, layer in cohorts.items()
        }
        state = cohorts["s1"]._rounds[block.round_key()]
        deadline = state.deadline
        roots = {sid: v.root for sid, v in votes.items() if v.root is not None}
        decided = block.with_decision(BlockDecision.COMMIT, roots)
        aggregate = aggregate_points(decompress_point(v.commitment) for v in votes.values())
        challenge = compute_challenge(aggregate, decided.signing_digest())
        other = block.with_decision(BlockDecision.ABORT, {})
        clock.advance(ROUND_TIMEOUT_S / 2)
        refused = cohorts["s1"].handle_challenge(challenge, aggregate.encode(), other)
        assert isinstance(refused, Refusal) and "does not correspond" in refused.reason
        assert state.block is block
        assert state.deadline == deadline
        assert state.status is CohortStatus.VOTED
        clock.set(deadline)
        report = cohorts["s1"].handle_view_change(None, "s0", 1)
        assert [proposal.block for proposal in report.stalled] == [block]

    def test_round_failed_releases_whatever_the_status(self):
        cohorts, block, _, _, _ = _challenged()
        assert cohorts["s0"].handle_round_failed(block.round_key()).released
        assert cohorts["s0"].pending_round_count() == 0
        # ... and an unknown round is nothing to release, not an error.
        assert not cohorts["s0"].handle_round_failed(block.round_key()).released


class TestDecisionPhase:
    def _finalise(self, cohorts, block):
        votes, decided, challenge, responses = run_phases(cohorts, block)
        cosign = CollectiveSignature(
            challenge=challenge,
            response=aggregate_scalars(r.response for r in responses.values()),
            signer_ids=tuple(sorted(cohorts)),
        )
        return decided.with_cosign(cosign)

    def test_decision_appends_and_applies(self):
        cohorts = make_cohorts()
        public_keys = {sid: keypair_for(sid, seed=5).public for sid in SERVER_IDS}
        block = make_partial_block(0, [make_txn("s0-item")], genesis_previous_hash())
        final = self._finalise(cohorts, block)
        for layer in cohorts.values():
            result = layer.handle_decision(final, public_keys, SERVER_IDS)
            assert isinstance(result, Applied)
            assert len(layer.log) == 1
        assert cohorts["s0"].store.read("s0-item").value == 42
        assert cohorts["s1"].store.read("s1-item").value == 0

    def test_decision_for_an_unknown_round_is_accepted_on_its_cosign(self):
        # A server that holds no state for the round (it was down, or is not
        # a member of the block's group) still applies a co-signed decision.
        cohorts = make_cohorts()
        public_keys = {sid: keypair_for(sid, seed=5).public for sid in SERVER_IDS}
        block = make_partial_block(0, [make_txn("s0-item")], genesis_previous_hash())
        final = self._finalise(cohorts, block)
        cohorts["s1"].handle_round_failed(block.round_key())
        result = cohorts["s1"].handle_decision(final, public_keys, SERVER_IDS)
        assert isinstance(result, Applied) and result.state_known is False
        assert cohorts["s0"].handle_decision(final, public_keys, SERVER_IDS).state_known is True

    def test_decision_with_invalid_cosign_rejected(self):
        cohorts = make_cohorts()
        public_keys = {sid: keypair_for(sid, seed=5).public for sid in SERVER_IDS}
        block = make_partial_block(0, [make_txn("s0-item")], genesis_previous_hash())
        final = self._finalise(cohorts, block)
        forged = final.with_cosign(
            CollectiveSignature(
                challenge=final.cosign.challenge,
                response=(final.cosign.response + 1),
                signer_ids=final.cosign.signer_ids,
            )
        )
        result = cohorts["s0"].handle_decision(forged, public_keys, SERVER_IDS)
        assert isinstance(result, Refusal)
        assert len(cohorts["s0"].log) == 0
        assert cohorts["s0"].store.read("s0-item").value == 0


class TestTwoPhaseCommitCohort:
    def test_prepare_and_decision(self):
        cohorts = make_cohorts()
        block = make_partial_block(0, [make_txn("s0-item")], genesis_previous_hash())
        vote = cohorts["s0"].handle_prepare(block)
        assert vote.involved and vote.decision == "commit"
        decided = block.with_decision(BlockDecision.COMMIT, {})
        result = cohorts["s0"].handle_2pc_decision(decided)
        assert isinstance(result, Applied)
        assert cohorts["s0"].store.read("s0-item").value == 42
        assert len(cohorts["s0"].log) == 1

    def test_prepare_conflict_votes_abort(self):
        cohorts = make_cohorts()
        apply_commit(cohorts["s0"].store, Timestamp(10, "z"), {"s0-item": 7})
        block = make_partial_block(0, [make_txn("s0-item", counter=5)], genesis_previous_hash())
        vote = cohorts["s0"].handle_prepare(block)
        assert vote.decision == "abort"
