"""Tests for the block ordering service (Section 4.6, Figure 9)."""

from __future__ import annotations


from repro.common.timestamps import Timestamp
from repro.core.grouping import ServerGroup
from repro.core.sequencing import OrderingService
from repro.crypto.hashing import EMPTY_HASH
from repro.ledger.block import BlockDecision, make_partial_block
from repro.obs import Observability
from repro.txn.transaction import ReadSetEntry, Transaction, WriteSetEntry


def make_block(items, counter, decision=BlockDecision.COMMIT):
    zero = Timestamp.zero()
    txn = Transaction(
        txn_id=f"t-{counter}",
        client_id="c0",
        commit_ts=Timestamp(counter, "c0"),
        read_set=[ReadSetEntry(item, 0, zero, zero) for item in items],
        write_set=[WriteSetEntry(item, counter) for item in items],
    )
    block = make_partial_block(0, [txn], EMPTY_HASH)
    return block.with_decision(decision, {})


def group(*members):
    return ServerGroup(frozenset(members), min(members))


class TestOrderingService:
    def test_blocks_get_consecutive_heights_and_chained_hashes(self):
        service = OrderingService(Observability())
        service.publish(make_block(["a"], 1), group("s0"))
        service.publish(make_block(["b"], 2), group("s1"))
        service.flush()
        ordered = service.ordered_blocks
        assert [b.global_height for b in ordered] == [0, 1]
        assert ordered[0].block.previous_hash == EMPTY_HASH
        assert ordered[1].block.previous_hash == ordered[0].block_hash

    def test_subscribers_receive_stream_in_order(self):
        service = OrderingService(Observability())
        delivered = []
        service.subscribe(lambda ob: delivered.append(ob.global_height))
        service.publish(make_block(["a"], 1), group("s0"))
        service.publish(make_block(["b"], 2), group("s1"))
        service.flush()
        assert delivered == [0, 1]

    def test_dependent_blocks_keep_submission_order(self):
        service = OrderingService(Observability(), reorder_window=2)
        service.publish(make_block(["x"], 1), group("s0", "s1"))
        service.publish(make_block(["x"], 2), group("s1", "s2"))
        service.flush()
        ordered = service.ordered_blocks
        assert [b.block.transactions[0].txn_id for b in ordered] == ["t-1", "t-2"]
        assert service.verify_dependency_order()

    def test_disjoint_blocks_may_be_reordered_safely(self):
        service = OrderingService(Observability(), reorder_window=3)
        service.publish(make_block(["a"], 1), group("s0"))
        service.publish(make_block(["b"], 2), group("s1"))
        service.publish(make_block(["c"], 3), group("s2"))
        service.flush()
        assert service.stream_length == 3
        assert service.verify_dependency_order()

    def test_stream_is_a_valid_chain_for_every_subscriber_log(self):
        from repro.ledger.log import TransactionLog

        service = OrderingService(Observability())
        log = TransactionLog()
        service.subscribe(lambda ob: log.append(ob.block, verify_link=False))
        for counter in range(1, 5):
            service.publish(make_block([f"item-{counter}"], counter), group(f"s{counter % 2}"))
        service.flush()
        assert len(log) == 4
        for earlier, later in zip(log.blocks, log.blocks[1:]):
            assert later.previous_hash == earlier.block_hash()
