"""Tests for the 2PC baseline (Section 6.1)."""

from __future__ import annotations


from repro.txn.operations import ReadOp, WriteOp


class TestTwoPhaseCommit:
    def test_commit_applies_writes_on_all_involved_servers(self, twopc_system):
        per_server_items = [
            twopc_system.shard_map.items_of(sid)[0] for sid in twopc_system.server_ids
        ]
        outcome = twopc_system.run_transaction([WriteOp(item, 7) for item in per_server_items])
        assert outcome.committed
        for server_id, item in zip(twopc_system.server_ids, per_server_items):
            assert twopc_system.server(server_id).store.read(item).value == 7

    def test_blocks_have_no_cosign_or_roots(self, twopc_system):
        item = twopc_system.shard_map.all_items()[0]
        twopc_system.run_transaction([WriteOp(item, 7)])
        block = twopc_system.server("s0").log[0]
        assert block.cosign is None
        assert block.roots == {}

    def test_conflicting_transaction_aborts(self, twopc_system):
        item = twopc_system.shard_map.all_items()[0]
        twopc_system.run_transaction([ReadOp(item), WriteOp(item, 1)])
        client = twopc_system.client(1)
        session = client.begin()
        client.read(session, item)
        twopc_system.run_transaction([ReadOp(item), WriteOp(item, 2)])
        outcome = client.commit(session)
        assert outcome.status == "aborted"
        assert twopc_system.server("s0").store.read(item).value == 2

    def test_two_phases_only(self, twopc_system):
        item = twopc_system.shard_map.all_items()[0]
        twopc_system.run_transaction([WriteOp(item, 7)])
        timing = twopc_system.coordinator.results[-1].timing
        assert set(timing.phases) == {"prepare", "decision", "aggregate"}

    def test_logs_identical_across_servers(self, twopc_system, workload_factory):
        workload = workload_factory(twopc_system, ops_per_txn=2, seed=9)
        result = twopc_system.run_workload(workload.generate(5))
        assert result.committed == 5
        heights = set(twopc_system.log_heights().values())
        assert heights == {5}


class TestEmptyCohortGuards:
    def test_broadcast_phase_with_empty_cohort_list_costs_zero(self, twopc_system):
        """Regression: the three ``max()`` calls in ``timed_broadcast`` need
        ``default=0.0`` guards (ported from TFCommit in PR 1) -- an empty
        cohort list used to raise ``ValueError: max() arg is an empty
        sequence``."""
        from repro.core.rounds import TimingBreakdown, timed_broadcast
        from repro.ledger.block import make_partial_block
        from repro.net.forms import Proposal
        from repro.net.message import MessageType

        timing = TimingBreakdown()
        block = make_partial_block(0, [], b"\x00" * 32)
        answers = timed_broadcast(
            twopc_system.network,
            twopc_system.latency,
            "s0",
            [],
            MessageType.PREPARE,
            Proposal(block),
            timing,
            "prepare",
            sim=twopc_system.sim,
        )
        assert answers == ({}, [])
        assert timing.phases["prepare"] == 0.0
        assert timing.network_time == 0.0

    def test_commit_batch_with_empty_cohort_list_does_not_raise(self, twopc_system):
        from repro.core.twopc import TwoPhaseCommitCoordinator
        from repro.net.message import Envelope, MessageType
        from repro.txn.transaction import Transaction
        from repro.common.timestamps import Timestamp

        coordinator = TwoPhaseCommitCoordinator(
            server=twopc_system.server("s0"),
            network=twopc_system.network,
            server_ids=[],
            sim=twopc_system.sim,
            txns_per_block=1,
        )
        txn = Transaction(
            txn_id="t-empty",
            client_id="c0",
            commit_ts=Timestamp(1, "c0"),
            read_set=[],
            write_set=[],
        )
        envelope = Envelope(
            sender="c0",
            recipient="s0",
            message_type=MessageType.END_TRANSACTION,
            payload={"transaction": txn},
        )
        result = coordinator.commit_batch([(txn, envelope)])
        # No cohort voted, so nothing objected: the round completes instead
        # of crashing on an empty response set.
        assert result.status == "committed"


class TestProtocolComparison:
    def test_tfcommit_does_more_work_than_2pc(self, small_system, twopc_system):
        """The Figure 12 claim at unit-test scale: trust costs extra phases and crypto."""
        item_tf = small_system.shard_map.all_items()[0]
        item_2pc = twopc_system.shard_map.all_items()[0]
        small_system.run_transaction([WriteOp(item_tf, 1)])
        twopc_system.run_transaction([WriteOp(item_2pc, 1)])
        tf_timing = small_system.coordinator.results[-1].timing
        twopc_timing = twopc_system.coordinator.results[-1].timing
        assert len(tf_timing.phases) > len(twopc_timing.phases)
        assert tf_timing.total > twopc_timing.total
