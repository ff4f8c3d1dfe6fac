"""Tests for the client run-time library (transaction life-cycle of Figure 5)."""

from __future__ import annotations

import pytest

from repro.common.errors import FidesError, SignatureError
from repro.common.timestamps import Timestamp
from repro.net.message import MessageType
from repro.txn.operations import ReadOp, WriteOp
from repro.workload.ycsb import TransactionSpec


class TestClientLifecycle:
    def test_read_your_own_cluster_values(self, small_system):
        client = small_system.client(0)
        session = client.begin()
        item = small_system.shard_map.all_items()[0]
        assert client.read(session, item) == 0

    def test_commit_returns_verified_outcome(self, small_system):
        client = small_system.client(0)
        session = client.begin()
        item = small_system.shard_map.all_items()[0]
        client.read(session, item)
        client.write(session, item, 42)
        outcome = client.commit(session)
        assert outcome.committed
        assert outcome.cosign_verified
        assert outcome.block_height == 0

    def test_committed_value_visible_to_next_transaction(self, small_system):
        item = small_system.shard_map.all_items()[0]
        small_system.run_transaction([ReadOp(item), WriteOp(item, 42)])
        outcome = small_system.run_transaction([ReadOp(item)])
        assert outcome.committed
        client = small_system.client(0)
        session = client.begin()
        assert client.read(session, item) == 42

    def test_clock_advances_past_observed_timestamps(self, small_system):
        item = small_system.shard_map.all_items()[0]
        small_system.run_transaction([WriteOp(item, 1)])
        client = small_system.client(0)
        session = client.begin()
        client.read(session, item)
        before = client.clock.current()
        outcome = client.commit(session)
        assert outcome.committed
        assert client.clock.current() > before

    def test_sessions_have_unique_txn_ids(self, small_system):
        client = small_system.client(0)
        assert client.begin().txn_id != client.begin().txn_id

    def test_two_clients_have_distinct_identities(self, small_system):
        assert small_system.client(0).client_id != small_system.client(1).client_id

    def test_blind_write_records_old_value(self, small_system):
        client = small_system.client(0)
        session = client.begin()
        item = small_system.shard_map.all_items()[0]
        client.write(session, item, 77)
        txn = session.build_transaction(Timestamp(50, client.client_id))
        (entry,) = txn.write_set
        assert entry.blind
        assert entry.old_value == 0

    def test_read_then_write_is_not_blind(self, small_system):
        client = small_system.client(0)
        session = client.begin()
        item = small_system.shard_map.all_items()[0]
        client.read(session, item)
        client.write(session, item, 77)
        txn = session.build_transaction(Timestamp(50, client.client_id))
        (entry,) = txn.write_set
        assert not entry.blind
        assert entry.old_value is None

    def test_queued_outcome_with_batching(self, batched_system):
        client = batched_system.client(0)
        session = client.begin()
        item = batched_system.shard_map.all_items()[0]
        client.write(session, item, 5)
        outcome = client.commit(session)
        assert outcome.pending
        flushed = batched_system.flush()
        resolved = client.interpret_outcome(outcome.txn_id, flushed)
        assert resolved.committed


class TestSession:
    def test_session_cannot_be_reused_after_commit(self, small_system):
        client = small_system.client(0)
        session = client.begin()
        item = small_system.shard_map.all_items()[0]
        client.write(session, item, 1)
        client.commit(session)
        with pytest.raises(Exception):
            client.read(session, item)

    def test_observed_timestamps_cover_reads_and_writes(self, small_system):
        client = small_system.client(0)
        session = client.begin()
        items = small_system.shard_map.all_items()
        client.read(session, items[0])
        client.write(session, items[1], 9)
        assert len(session.observed_timestamps()) == 4


class TestLyingServer:
    """A READ / WRITE reply is an untrusted server's word: the client reads
    it with ``read_reply``, so a malformed reply is a ``FidesError`` the
    application can catch -- it used to escape as ``TypeError``."""

    @pytest.mark.parametrize(
        "rts", [["3", 7], [3], 3, None, [-1, "c0"]],
        ids=["swapped-types", "short", "scalar", "none", "negative"],
    )
    def test_a_malformed_read_reply_is_a_fides_error(self, small_system, lie, rts):
        item = small_system.shard_map.all_items()[0]
        server_id = small_system.shard_map.server_for(item)
        lie(small_system, server_id, MessageType.READ, lambda reply: {**reply, "rts": rts})
        client = small_system.client(0)
        session = client.begin()
        with pytest.raises(FidesError, match="rts"):
            client.read(session, item)
        assert session.items_read == set()

    @pytest.mark.parametrize(
        "damage",
        [
            lambda reply: {**reply, "old": {**reply["old"], "wts": "soon"}},
            lambda reply: {"ok": True},
        ],
        ids=["str-wts", "no-old"],
    )
    def test_a_malformed_write_reply_is_a_fides_error(self, small_system, lie, damage):
        item = small_system.shard_map.all_items()[0]
        lie(small_system, small_system.shard_map.server_for(item), MessageType.WRITE, damage)
        client = small_system.client(0)
        session = client.begin()
        with pytest.raises(FidesError):
            client.write(session, item, 5)
        assert session.items_written == set()


def _without_status(reply):
    for outcome in reply["outcomes"]:
        del outcome["status"]
    return reply


def _forged_cosign(reply):
    for outcome in reply["outcomes"]:
        outcome["cosign"]["response"] += 1
    return reply


class TestLyingCoordinator:
    """The coordinator is untrusted too: a termination reply that is not a
    ``Termination`` fails the transaction with the reason it did not decode.
    It used to escape as ``AttributeError`` / ``KeyError``."""

    @pytest.mark.parametrize(
        "damage, names",
        [
            (lambda reply: None, "must be a dict, not NoneType"),
            (lambda reply: "no", "must be a dict, not str"),
            (lambda reply: {"status": "flushed", "results": None}, "undeclared key"),
            (_without_status, "'status' is missing"),
        ],
        ids=["none", "no", "flushed-without-results", "outcome-without-status"],
    )
    @pytest.mark.parametrize("entry", ["run_transaction", "run_workload"])
    def test_a_malformed_termination_reply_is_a_failed_outcome(
        self, small_system, lie, damage, names, entry
    ):
        item = small_system.shard_map.all_items()[0]
        lie(small_system, small_system.coordinator_id, MessageType.END_TRANSACTION, damage)
        operations = (ReadOp(item), WriteOp(item, 5))
        if entry == "run_transaction":
            outcome = small_system.run_transaction(operations)
        else:
            (outcome,) = small_system.run_workload([TransactionSpec(0, operations)]).outcomes
        assert outcome.status == "failed"
        assert "Termination" in outcome.reason and names in outcome.reason

    def test_a_forged_co_sign_is_an_anomaly_after_a_verified_one(self, small_system, lie):
        """The client checks every proof it has not seen verify: outcomes of
        one block share one, a forged one is not it."""
        item = small_system.shard_map.all_items()[0]
        assert small_system.run_transaction([WriteOp(item, 1)]).cosign_verified
        lie(small_system, small_system.coordinator_id, MessageType.END_TRANSACTION, _forged_cosign)
        with pytest.raises(SignatureError, match="invalid co-sign"):
            small_system.run_transaction([WriteOp(item, 2)])
