"""``block_store_commits`` against the triples it built before it skipped
transactions with nothing on the shard without allocating for them."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.timestamps import Timestamp
from repro.ledger.block import genesis_previous_hash, make_partial_block
from repro.storage.apply import block_store_commits
from repro.storage.datastore import DataStore
from repro.txn.transaction import ReadSetEntry, Transaction, WriteSetEntry

ITEMS = "abcdefgh"


def reference_commits(block, store):
    commits = []
    for txn in block.transactions:
        local_writes = {
            entry.item_id: entry.new_value for entry in txn.write_set if entry.item_id in store
        }
        local_reads = [entry.item_id for entry in txn.read_set if entry.item_id in store]
        if local_writes or local_reads:
            commits.append((txn.commit_ts, local_writes, local_reads))
    return commits


def make_txn(index, reads, writes):
    zero = Timestamp.zero()
    return Transaction(
        txn_id=f"t{index}",
        client_id="c0",
        commit_ts=Timestamp(index + 1, "c0"),
        read_set=[ReadSetEntry(item, 0, zero, zero) for item in reads],
        write_set=[WriteSetEntry(item, f"{index}:{pos}") for pos, item in enumerate(writes)],
    )


_items = st.lists(st.sampled_from(ITEMS), max_size=4)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.frozensets(st.sampled_from(ITEMS), min_size=1),
    st.lists(st.tuples(_items, _items), min_size=1, max_size=8),
)
def test_the_same_triples_as_the_reference(local, rows):
    store = DataStore({item: 0 for item in sorted(local)})
    block = make_partial_block(
        0, [make_txn(i, r, w) for i, (r, w) in enumerate(rows)], genesis_previous_hash()
    )
    assert block_store_commits(block, store) == reference_commits(block, store)


def test_a_transaction_that_only_reads_on_the_shard_still_commits_its_reads():
    store = DataStore({"a": 0})
    block = make_partial_block(0, [make_txn(0, ["a"], ["b"])], genesis_previous_hash())
    assert block_store_commits(block, store) == [(Timestamp(1, "c0"), {}, ["a"])]
