"""Tests for multi-transaction blocks and the batch builder (Section 4.6)."""

from __future__ import annotations

import pytest

from repro.common.timestamps import Timestamp
from repro.core.rounds import BatchBuilder
from repro.common.errors import ProtocolError
from repro.net.forms import EndTxn
from repro.net.message import Envelope, MessageType
from repro.txn.transaction import Transaction, WriteSetEntry


def make_txn(txn_id: str, item: str, counter: int) -> Transaction:
    return Transaction(
        txn_id=txn_id,
        client_id="c0",
        commit_ts=Timestamp(counter, "c0"),
        read_set=[],
        write_set=[WriteSetEntry(item, counter)],
    )


class TestBatchBuilder:
    def test_takes_up_to_block_size(self):
        builder = BatchBuilder(txns_per_block=2)
        pending = [(make_txn(f"t{i}", f"x{i}", i + 1), None) for i in range(5)]
        batch, stale = builder.take_batch(pending)
        assert [txn.txn_id for txn, _ in batch] == ["t0", "t1"]
        assert stale == []
        assert len(pending) == 3

    def test_conflicting_transactions_split_across_batches(self):
        builder = BatchBuilder(txns_per_block=3)
        pending = [
            (make_txn("t0", "same-item", 1), None),
            (make_txn("t1", "same-item", 2), None),
            (make_txn("t2", "other-item", 3), None),
        ]
        batch, stale = builder.take_batch(pending)
        assert [txn.txn_id for txn, _ in batch] == ["t0", "t2"]
        assert stale == []
        assert [txn.txn_id for txn, _ in pending] == ["t1"]

    def test_stale_transactions_filtered_out(self):
        builder = BatchBuilder(txns_per_block=3)
        pending = [
            (make_txn("t0", "x0", 1), None),
            (make_txn("t1", "x1", 5), None),
            (make_txn("t2", "x2", 3), None),
        ]
        batch, stale = builder.take_batch(pending, latest_committed_ts=Timestamp(3, "c9"))
        assert [txn.txn_id for txn, _ in batch] == ["t1"]
        assert [txn.txn_id for txn, _ in stale] == ["t0", "t2"]
        assert pending == []

    def test_no_latest_ts_keeps_everything(self):
        builder = BatchBuilder(txns_per_block=5)
        pending = [(make_txn("t0", "x0", 1), None)]
        batch, stale = builder.take_batch(pending)
        assert len(batch) == 1 and stale == []

    def test_invalid_block_size_rejected(self):
        with pytest.raises(ProtocolError):
            BatchBuilder(0)


class TestBatchedCommit:
    def test_full_batch_commits_in_one_block(self, batched_system, workload_factory):
        workload = workload_factory(batched_system, ops_per_txn=2, window=4, seed=2)
        result = batched_system.run_workload(workload.generate(4))
        assert result.committed == 4
        assert batched_system.server("s0").log.height == 1
        block = batched_system.server("s0").log[0]
        assert len(block.transactions) == 4

    def test_partial_batch_commits_on_flush(self, batched_system, workload_factory):
        workload = workload_factory(batched_system, ops_per_txn=2, window=4, seed=2)
        result = batched_system.run_workload(workload.generate(6))
        assert result.committed == 6
        heights = set(batched_system.log_heights().values())
        assert heights == {2}

    def test_batched_block_amortises_latency(self, batched_system, workload_factory):
        workload = workload_factory(batched_system, ops_per_txn=2, window=4, seed=2)
        batched_system.run_workload(workload.generate(4))
        timing = batched_system.coordinator.results[-1].timing
        assert timing.num_txns == 4
        assert timing.per_txn_latency * 4 == pytest.approx(timing.total)

    def test_flush_fails_transactions_made_stale_by_earlier_block(self, batched_system):
        # Two conflicting transactions where the later-queued one carries the
        # LOWER commit timestamp: the first block of the flush commits the
        # high-timestamp one, which makes the other stale mid-flush.
        coordinator = batched_system.coordinator
        batched_system.client(0)  # registers "c0" keys on the network
        item = batched_system.shard_map.all_items()[0]

        def enqueue(txn_id: str, counter: int):
            txn = Transaction(
                txn_id=txn_id,
                client_id="c0",
                commit_ts=Timestamp(counter, "c0"),
                read_set=[],
                write_set=[WriteSetEntry(item, counter)],
            )
            envelope = batched_system.network.sign_envelope(
                Envelope(
                    sender="c0",
                    recipient=coordinator.coordinator_id,
                    message_type=MessageType.END_TRANSACTION,
                    payload=EndTxn(txn, txn.commit_ts),
                )
            )
            return coordinator.on_end_transaction(envelope)

        assert enqueue("t-high", 5).queued
        assert enqueue("t-low", 1).queued
        outcomes = {outcome.txn_id: outcome for outcome in coordinator.flush().outcomes}
        assert outcomes["t-high"].status == "committed"
        low = outcomes["t-low"]
        assert low.status == "failed"
        assert low.reason == "stale commit timestamp"

    def test_transactions_within_block_do_not_conflict(self, batched_system, workload_factory):
        workload = workload_factory(batched_system, ops_per_txn=2, window=4, seed=2)
        batched_system.run_workload(workload.generate(8))
        for block in batched_system.server("s0").log:
            txns = block.transactions
            for i, earlier in enumerate(txns):
                for later in txns[i + 1 :]:
                    assert not earlier.conflicts_with(later)
