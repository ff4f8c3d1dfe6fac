"""Unit tests for the cohort-side commitment layer (TFCommit phases 2, 4, 5)."""

from __future__ import annotations

import pytest

from repro.common.errors import ProtocolError
from repro.common.timestamps import Timestamp
from repro.crypto.cosi import (
    CollectiveSignature,
    aggregate_points,
    aggregate_scalars,
    compute_challenge,
)
from repro.crypto.group import CURVE_ORDER, decompress_point, generator_multiply
from repro.crypto.keys import keypair_for
from repro.ledger.block import BlockDecision, genesis_previous_hash, make_partial_block
from repro.ledger.log import TransactionLog
from repro.obs import Observability
from repro.server.commitment import CommitmentLayer
from repro.sim.clock import VirtualClock
from repro.storage.datastore import DataStore
from repro.txn.transaction import ReadSetEntry, Transaction, WriteSetEntry

SERVER_IDS = ["s0", "s1"]


def make_cohorts():
    cohorts = {}
    for server_id in SERVER_IDS:
        store = DataStore({f"{server_id}-item": 0})
        cohorts[server_id] = CommitmentLayer(
            server_id,
            keypair_for(server_id, seed=5),
            store,
            TransactionLog(),
            VirtualClock(),
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
        cohorts["s0"].store.apply_commit(Timestamp(10, "z"), {"s0-item": 7})
        block = make_partial_block(0, [make_txn("s0-item", counter=5)], genesis_previous_hash())
        vote = cohorts["s0"].handle_get_vote(block)
        assert vote.decision == "abort"
        assert vote.abort_reason

    def test_wrong_height_rejected(self):
        cohorts = make_cohorts()
        block = make_partial_block(3, [make_txn("s0-item")], genesis_previous_hash())
        with pytest.raises(ProtocolError):
            cohorts["s0"].handle_get_vote(block)


class TestChallengePhase:
    def test_honest_round_produces_responses(self):
        cohorts = make_cohorts()
        block = make_partial_block(0, [make_txn("s0-item")], genesis_previous_hash())
        _, decided, challenge, responses = run_phases(cohorts, block)
        assert all(resp["ok"] for resp in responses.values())

    def test_challenge_for_unknown_round_rejected(self):
        cohorts = make_cohorts()
        block = make_partial_block(0, [make_txn("s0-item")], genesis_previous_hash())
        decided = block.with_decision(BlockDecision.COMMIT, {})
        response = cohorts["s0"].handle_challenge(1, b"\x00", decided)
        assert not response["ok"] and response["response"] is None
        assert "never voted" in response["reason"]

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
        assert not response["ok"]
        assert "different root" in response["reason"]

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
        assert not response["ok"]
        assert "does not correspond" in response["reason"]

    def test_cohort_refuses_commit_after_voting_abort(self):
        cohorts = make_cohorts()
        cohorts["s0"].store.apply_commit(Timestamp(10, "z"), {"s0-item": 7})
        block = make_partial_block(0, [make_txn("s0-item", counter=5)], genesis_previous_hash())
        votes = {sid: layer.handle_get_vote(block) for sid, layer in cohorts.items()}
        # Malicious coordinator ignores the abort vote and claims commit,
        # forging a root for s0.
        decided = block.with_decision(BlockDecision.COMMIT, {"s0": b"\x01" * 32})
        aggregate = aggregate_points(decompress_point(v.commitment) for v in votes.values())
        challenge = compute_challenge(aggregate, decided.body_digest())
        response = cohorts["s0"].handle_challenge(challenge, aggregate.encode(), decided)
        assert not response["ok"]


def _challenged():
    cohorts = make_cohorts()
    block = make_partial_block(0, [make_txn("s0-item")], genesis_previous_hash())
    _, decided, challenge, responses = run_phases(cohorts, block)
    assert all(resp["ok"] for resp in responses.values())
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
    if second["ok"]:
        leaked = (
            (responses["s0"]["response"] - second["response"])
            * pow(second_challenge - challenge, -1, CURVE_ORDER)
            % CURVE_ORDER
        )
        assert leaked == keypair_for("s0", seed=5).secret_scalar
        pytest.fail("two responses from one nonce: the coordinator recovered s0's key")
    assert second["response"] is None and "already answered" in second["reason"]
    assert cohorts["s0"].pending_round_count() == 1


class TestCohortLifecycle:
    """One test per message a round's status makes illegal
    (``COHORT_TRANSITIONS``): each is refused -- never an exception, the
    sender is an untrusted coordinator -- and leaves the round as it was."""

    @pytest.mark.parametrize("rearm", ["handle_get_vote", "handle_prepare"])
    def test_a_challenged_round_cannot_be_rearmed(self, rearm):
        cohorts, block, _, _, _ = _challenged()
        answer = getattr(cohorts["s0"], rearm)(block)
        assert isinstance(answer, dict) and answer["ok"] is False and answer["refused"]
        assert "cannot be re-armed" in answer["reason"]

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
        assert not response["ok"] and "never voted" in response["reason"]

    def test_round_failed_releases_whatever_the_status(self):
        cohorts, block, _, _, _ = _challenged()
        assert cohorts["s0"].handle_round_failed(block.round_key())["released"]
        assert cohorts["s0"].pending_round_count() == 0
        # ... and an unknown round is nothing to release, not an error.
        assert not cohorts["s0"].handle_round_failed(block.round_key())["released"]


class TestDecisionPhase:
    def _finalise(self, cohorts, block):
        votes, decided, challenge, responses = run_phases(cohorts, block)
        cosign = CollectiveSignature(
            challenge=challenge,
            response=aggregate_scalars(r["response"] for r in responses.values()),
            signer_ids=tuple(sorted(cohorts)),
        )
        return decided.with_cosign(cosign)

    def test_decision_appends_and_applies(self):
        cohorts = make_cohorts()
        public_keys = {sid: keypair_for(sid, seed=5).public for sid in SERVER_IDS}
        block = make_partial_block(0, [make_txn("s0-item")], genesis_previous_hash())
        final = self._finalise(cohorts, block)
        for layer in cohorts.values():
            result = layer.handle_decision(final, public_keys)
            assert result["ok"]
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
        result = cohorts["s1"].handle_decision(final, public_keys)
        assert result["ok"] and result["state_known"] is False
        assert cohorts["s0"].handle_decision(final, public_keys)["state_known"] is True

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
        result = cohorts["s0"].handle_decision(forged, public_keys)
        assert not result["ok"]
        assert len(cohorts["s0"].log) == 0
        assert cohorts["s0"].store.read("s0-item").value == 0


class TestTwoPhaseCommitCohort:
    def test_prepare_and_decision(self):
        cohorts = make_cohorts()
        block = make_partial_block(0, [make_txn("s0-item")], genesis_previous_hash())
        vote = cohorts["s0"].handle_prepare(block)
        assert vote["involved"] and vote["decision"] == "commit"
        decided = block.with_decision(BlockDecision.COMMIT, {})
        result = cohorts["s0"].handle_2pc_decision(decided)
        assert result["ok"]
        assert cohorts["s0"].store.read("s0-item").value == 42
        assert len(cohorts["s0"].log) == 1

    def test_prepare_conflict_votes_abort(self):
        cohorts = make_cohorts()
        cohorts["s0"].store.apply_commit(Timestamp(10, "z"), {"s0-item": 7})
        block = make_partial_block(0, [make_txn("s0-item", counter=5)], genesis_previous_hash())
        vote = cohorts["s0"].handle_prepare(block)
        assert vote["decision"] == "abort"
