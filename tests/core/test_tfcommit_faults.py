"""TFCommit under injected malicious behaviour (Section 5 scenarios at the protocol level)."""

from __future__ import annotations

import pytest

from repro.net.message import MessageType
from repro.server.faults import FaultPlan
from repro.txn.operations import ReadOp, WriteOp

_DROP = object()


class TestBadCosiValues:
    def test_bad_response_is_detected_and_culprit_identified(self, small_system):
        """Lemma 4: the coordinator pinpoints the server with bad crypto values."""
        small_system.inject_fault("s2", [FaultPlan("corrupt-response", "s2")])
        item = small_system.shard_map.items_of("s1")[0]
        outcome = small_system.run_transaction([WriteOp(item, 9)])
        assert outcome.status == "failed"
        result = small_system.coordinator.results[-1]
        assert result.status == "failed"
        assert result.culprits == ["s2"]
        # Nothing was committed anywhere.
        assert all(height == 0 for height in small_system.log_heights().values())

    def test_bad_commitment_still_yields_failed_round(self, small_system):
        small_system.inject_fault("s1", [FaultPlan("corrupt-commitment", "s1")])
        item = small_system.shard_map.items_of("s2")[0]
        outcome = small_system.run_transaction([WriteOp(item, 9)])
        assert outcome.status == "failed"
        result = small_system.coordinator.results[-1]
        assert "s1" in result.culprits


class TestFakeRoot:
    def test_benign_cohort_detects_fake_root(self, small_system):
        """Scenario 2: the coordinator records a wrong MHT root for a benign server."""
        small_system.inject_fault("s0", [FaultPlan("fake-root", "s0", params={"victim": "s1"})])
        item = small_system.shard_map.items_of("s1")[0]
        outcome = small_system.run_transaction([WriteOp(item, 9)])
        assert outcome.status == "failed"
        result = small_system.coordinator.results[-1]
        assert result.refusals
        assert any("different root" in r.reason for r in result.refusals)
        # The victim's datastore is untouched and nothing was logged.
        assert small_system.server("s1").store.read(item).value == 0
        assert all(height == 0 for height in small_system.log_heights().values())


class TestFailedRoundCleanup:
    """Regression: rounds that fail before a decision used to leak RoundState.

    ``CommitmentLayer._rounds`` only popped state in ``handle_decision``;
    rounds failing at the challenge phase (refusals, bad co-sign) never see a
    decision, so the coordinator now broadcasts an explicit abandonment and
    every cohort must end up with zero buffered rounds.
    """

    def _assert_no_round_state(self, system):
        for server_id, server in system.servers.items():
            assert server.commitment.pending_round_count() == 0, server_id

    def test_refusal_failed_round_releases_state_everywhere(self, small_system):
        small_system.inject_fault("s0", [FaultPlan("fake-root", "s0", params={"victim": "s1"})])
        item = small_system.shard_map.items_of("s1")[0]
        assert small_system.run_transaction([WriteOp(item, 9)]).status == "failed"
        self._assert_no_round_state(small_system)

    def test_bad_cosign_failed_round_releases_state_everywhere(self, small_system):
        small_system.inject_fault("s2", [FaultPlan("corrupt-response", "s2")])
        item = small_system.shard_map.items_of("s1")[0]
        assert small_system.run_transaction([WriteOp(item, 9)]).status == "failed"
        self._assert_no_round_state(small_system)

    def test_equivocation_failed_round_releases_state_everywhere(self, small_system):
        small_system.inject_fault("s0", [FaultPlan("equivocate", "s0")])
        item = small_system.shard_map.items_of("s1")[0]
        assert small_system.run_transaction([WriteOp(item, 9)]).status == "failed"
        self._assert_no_round_state(small_system)

    def test_successful_round_also_leaves_no_state(self, small_system):
        item = small_system.shard_map.items_of("s1")[0]
        assert small_system.run_transaction([WriteOp(item, 9)]).committed
        self._assert_no_round_state(small_system)


class TestEquivocatingCoordinator:
    def test_correct_cohorts_refuse_mismatched_challenge(self, small_system):
        """Lemma 5 / Figure 8, Case 1: the same challenge cannot cover two blocks."""
        small_system.inject_fault("s0", [FaultPlan("equivocate", "s0")])
        item = small_system.shard_map.items_of("s1")[0]
        outcome = small_system.run_transaction([WriteOp(item, 9)])
        assert outcome.status == "failed"
        result = small_system.coordinator.results[-1]
        assert result.refusals
        assert any("does not correspond" in r.reason for r in result.refusals)
        # Atomicity is preserved: no server applied the write or grew its log.
        assert all(height == 0 for height in small_system.log_heights().values())
        assert small_system.server("s1").store.read(item).value == 0

    def test_cluster_recovers_after_coordinator_becomes_honest(self, small_system):
        small_system.inject_fault("s0", [FaultPlan("equivocate", "s0")])
        item = small_system.shard_map.items_of("s1")[0]
        assert small_system.run_transaction([WriteOp(item, 9)]).status == "failed"
        small_system.inject_fault("s0", [])
        outcome = small_system.run_transaction([ReadOp(item), WriteOp(item, 10)])
        assert outcome.committed
        assert small_system.server("s1").store.read(item).value == 10


class TestMalformedVote:
    """A vote is an untrusted peer's reply: the coordinator reads it with
    ``read_reply``, and a vote that does not decode fails the round like any
    refusal.  These used to escape ``commit_batch`` as ``KeyError`` (a
    missing field) or ``TypeError`` (a field of the wrong type)."""

    @staticmethod
    def _damaged(damage):
        """A vote with ``damage`` done to it, as the liar's reply on the wire."""

        def lying(vote):
            vote = {**vote, **damage}
            return {key: value for key, value in vote.items() if value is not _DROP}

        return lying

    @pytest.mark.parametrize(
        "field, value",
        [("commitment", _DROP), ("commitment", 7), ("mht_hashes", "6"), ("involved", 1)],
        ids=["missing-commitment", "int-commitment", "str-mht-hashes", "int-involved"],
    )
    def test_a_vote_that_does_not_decode_fails_the_round(self, small_system, lie, field, value):
        lie(small_system, "s2", MessageType.GET_VOTE, self._damaged({field: value}))
        item = small_system.shard_map.items_of("s1")[0]
        outcome = small_system.run_transaction([WriteOp(item, 9)])
        assert outcome.status == "failed"
        result = small_system.coordinator.results[-1]
        assert result.status == "failed"
        # The liar's reply is the one refusal, its reason names the field,
        # and nobody else is accused.
        assert [refusal.server_id for refusal in result.refusals] == ["s2"]
        assert field in result.refusals[0].reason
        assert result.culprits == []
        # ROUND_FAILED went out: no cohort still holds the round, nothing committed.
        for server_id, server in small_system.servers.items():
            assert server.commitment.pending_round_count() == 0, server_id
        assert all(height == 0 for height in small_system.log_heights().values())

    def test_the_next_round_commits_once_the_cohort_stops_lying(self, small_system, lie):
        lie(small_system, "s2", MessageType.GET_VOTE, self._damaged({"commitment": _DROP}))
        item = small_system.shard_map.items_of("s1")[0]
        assert small_system.run_transaction([WriteOp(item, 9)]).status == "failed"
        small_system.server("s2").attach(small_system.network, rejoin=True)
        assert small_system.run_transaction([WriteOp(item, 9)]).committed
