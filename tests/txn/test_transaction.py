"""Tests for transactions and read/write sets."""

from __future__ import annotations


from repro.common.timestamps import Timestamp
from repro.txn.operations import ReadOp, WriteOp
from repro.txn.transaction import ReadSetEntry, Transaction, WriteSetEntry


def make_txn(reads=("a",), writes=("b",), counter=5):
    return Transaction(
        txn_id="t1",
        client_id="c0",
        commit_ts=Timestamp(counter, "c0"),
        read_set=[ReadSetEntry(i, 0, Timestamp.zero(), Timestamp.zero()) for i in reads],
        write_set=[WriteSetEntry(i, 1) for i in writes],
    )


class TestOperations:
    def test_read_op_flags(self):
        op = ReadOp("x")
        assert op.is_read

    def test_write_op_flags(self):
        op = WriteOp("x", 3)
        assert not op.is_read
        assert op.to_wire()["value"] == 3


class TestTransaction:
    def test_item_views(self):
        txn = make_txn(reads=("a", "b"), writes=("b", "c"))
        assert txn.items_read() == {"a", "b"}
        assert txn.items_written() == {"b", "c"}
        assert txn.items_accessed() == {"a", "b", "c"}

    def test_sets_are_immutable_tuples(self):
        txn = make_txn()
        assert isinstance(txn.read_set, tuple)
        assert isinstance(txn.write_set, tuple)

    def test_encoded_is_cached_and_content_sensitive(self):
        txn = make_txn()
        assert txn.encoded() == txn.encoded()
        other = make_txn(writes=("z",))
        assert txn.encoded() != other.encoded()

    def test_to_wire_contains_table1_information(self):
        wire = make_txn().to_wire()
        assert wire["commit_ts"] == (5, "c0")
        assert wire["read_set"][0]["item_id"] == "a"
        assert wire["write_set"][0]["new_value"] == 1


class TestConflicts:
    def test_write_write_conflict(self):
        assert make_txn(writes=("x",)).conflicts_with(make_txn(writes=("x",)))

    def test_read_write_conflict(self):
        assert make_txn(reads=("x",), writes=()).conflicts_with(make_txn(writes=("x",)))
        assert make_txn(writes=("x",)).conflicts_with(make_txn(reads=("x",), writes=()))

    def test_disjoint_transactions_do_not_conflict(self):
        assert not make_txn(reads=("a",), writes=("b",)).conflicts_with(
            make_txn(reads=("c",), writes=("d",))
        )

    def test_read_read_is_not_a_conflict(self):
        assert not make_txn(reads=("x",), writes=()).conflicts_with(
            make_txn(reads=("x",), writes=())
        )

