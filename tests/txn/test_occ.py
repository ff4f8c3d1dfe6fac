"""Tests for timestamp-ordering concurrency control (Section 4.3.1, Lemma 3)."""

from __future__ import annotations


from repro.common.timestamps import Timestamp
from repro.storage.datastore import DataStore
from repro.txn.occ import ConflictKind, OccValidator, classify_conflicts
from repro.txn.transaction import ReadSetEntry, Transaction, WriteSetEntry

from store_helpers import apply_commit


def make_store():
    return DataStore({"x": 0, "y": 0})


def txn_reading(item, value, rts, wts, commit_counter, writes=()):
    return Transaction(
        txn_id="t",
        client_id="c0",
        commit_ts=Timestamp(commit_counter, "c0"),
        read_set=[ReadSetEntry(item, value, rts, wts)],
        write_set=[WriteSetEntry(w, 1) for w in writes],
    )


class TestOccValidator:
    def test_fresh_transaction_commits(self):
        store = make_store()
        txn = txn_reading("x", 0, Timestamp.zero(), Timestamp.zero(), 5, writes=("x",))
        outcome = OccValidator(store).validate(txn)
        assert outcome.commit
        assert outcome.reason() == "ok"

    def test_read_of_stale_version_aborts(self):
        store = make_store()
        apply_commit(store, Timestamp(10, "c1"), {"x": 99})
        # The transaction read x before the ts-10 write and now tries to
        # commit at ts-12: the value it read is stale.
        txn = txn_reading("x", 0, Timestamp.zero(), Timestamp.zero(), 12, writes=())
        outcome = OccValidator(store).validate(txn)
        assert outcome.abort
        assert outcome.conflicts[0].kind is ConflictKind.STALE_READ

    def test_commit_timestamp_below_existing_write_aborts(self):
        store = make_store()
        apply_commit(store, Timestamp(10, "c1"), {"x": 99})
        txn = txn_reading("x", 99, Timestamp(10, "c1"), Timestamp(10, "c1"), 7, writes=())
        outcome = OccValidator(store).validate(txn)
        assert outcome.abort
        assert outcome.conflicts[0].kind is ConflictKind.READ_WRITE

    def test_write_below_existing_write_aborts(self):
        store = make_store()
        apply_commit(store, Timestamp(10, "c1"), {"y": 1})
        txn = Transaction(
            txn_id="t",
            client_id="c0",
            commit_ts=Timestamp(8, "c0"),
            read_set=[],
            write_set=[WriteSetEntry("y", 2)],
        )
        outcome = OccValidator(store).validate(txn)
        assert outcome.abort
        assert any(c.kind is ConflictKind.WRITE_WRITE for c in outcome.conflicts)

    def test_write_below_existing_read_aborts(self):
        store = make_store()
        apply_commit(store, Timestamp(10, "c1"), {}, reads=["y"])
        assert store.read("y").rts == Timestamp(10, "c1")
        assert store.read("y").wts == Timestamp.zero()
        txn = Transaction(
            txn_id="t",
            client_id="c0",
            commit_ts=Timestamp(8, "c0"),
            read_set=[],
            write_set=[WriteSetEntry("y", 2)],
        )
        outcome = OccValidator(store).validate(txn)
        assert outcome.abort
        assert any(c.kind is ConflictKind.WRITE_READ for c in outcome.conflicts)

    def test_items_not_stored_locally_are_ignored(self):
        store = make_store()
        txn = txn_reading("foreign-item", 0, Timestamp.zero(), Timestamp.zero(), 5)
        assert OccValidator(store).validate(txn).commit

    def test_conflict_description_mentions_item(self):
        store = make_store()
        apply_commit(store, Timestamp(10, "c1"), {"x": 99})
        txn = txn_reading("x", 99, Timestamp(10, "c1"), Timestamp(10, "c1"), 7)
        outcome = OccValidator(store).validate(txn)
        assert "x" in outcome.reason()


class TestClassifyConflicts:
    def test_clean_transaction_has_no_conflicts(self):
        txn = txn_reading("x", 0, Timestamp(1, "a"), Timestamp(1, "a"), 5, writes=("x",))
        assert classify_conflicts(txn) == []

    def test_rw_conflict_detected(self):
        txn = txn_reading("x", 0, Timestamp(1, "a"), Timestamp(9, "a"), 5)
        kinds = {c.kind for c in classify_conflicts(txn)}
        assert ConflictKind.READ_WRITE in kinds

    def test_ww_and_wr_conflicts_detected(self):
        txn = Transaction(
            txn_id="t",
            client_id="c0",
            commit_ts=Timestamp(5, "c0"),
            read_set=[],
            write_set=[WriteSetEntry("x", 1, rts=Timestamp(9, "a"), wts=Timestamp(8, "a"))],
        )
        kinds = {c.kind for c in classify_conflicts(txn)}
        assert kinds == {ConflictKind.WRITE_WRITE, ConflictKind.WRITE_READ}

    def test_conflict_carries_timestamps(self):
        txn = txn_reading("x", 0, Timestamp(1, "a"), Timestamp(9, "a"), 5)
        conflict = classify_conflicts(txn)[0]
        assert conflict.txn_ts == Timestamp(5, "c0")
        assert conflict.existing_ts == Timestamp(9, "a")
