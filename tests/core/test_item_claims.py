"""The batch's item claims against the pairwise scans they replaced.

``BatchBuilder.take_batch`` and ``validate_batch`` check a transaction against
the items the batch already reads and writes (``ItemClaims``), not against
each member.  The references below are the pairwise scans, with
``Transaction.conflicts_with`` deciding every pair: the claims must pick the
same batch, leave the same remaining and stale lists, and name the same pair
in the same error.
"""

from __future__ import annotations

from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ProtocolInvariantError
from repro.common.timestamps import Timestamp
from repro.core.rounds import BatchBuilder, ItemClaims, validate_batch
from repro.txn.transaction import ReadSetEntry, Transaction, WriteSetEntry

ITEMS = "abcdefg"


def make_txn(index: int, reads, writes, counter: int) -> Transaction:
    zero = Timestamp.zero()
    return Transaction(
        txn_id=f"t{index}",
        client_id="c0",
        commit_ts=Timestamp(counter, "c0"),
        read_set=[ReadSetEntry(item, 0, zero, zero) for item in reads],
        write_set=[WriteSetEntry(item, index) for item in writes],
    )


def pairwise_take(limit: int, pending, latest: Optional[Timestamp]):
    """The batch builder as a scan over the batch's members."""
    batch, stale, remaining = [], [], []
    for txn, envelope in pending:
        if latest is not None and txn.commit_ts <= latest:
            stale.append((txn, envelope))
        elif len(batch) >= limit or any(txn.conflicts_with(s) for s, _ in batch):
            remaining.append((txn, envelope))
        else:
            batch.append((txn, envelope))
    return batch, stale, remaining


def pairwise_refusal(transactions: List[Transaction]) -> Optional[str]:
    """The message ``validate_batch`` raises, found by the all-pairs scan."""
    for index, txn in enumerate(transactions):
        for earlier in transactions[:index]:
            if txn.conflicts_with(earlier):
                return (
                    f"batch contains conflicting transactions "
                    f"{earlier.txn_id} and {txn.txn_id} (BatchBuilder contract)"
                )
    return None


_items = st.lists(st.sampled_from(ITEMS), max_size=3)
_transactions = st.lists(
    st.tuples(_items, _items, st.integers(1, 8)), max_size=12
).map(lambda rows: [make_txn(i, r, w, c) for i, (r, w, c) in enumerate(rows)])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_transactions, st.integers(1, 6), st.none() | st.integers(0, 8))
def test_take_batch_is_the_pairwise_scan(transactions, limit, latest_counter):
    latest = None if latest_counter is None else Timestamp(latest_counter, "c0")
    pending = [(txn, f"envelope-{txn.txn_id}") for txn in transactions]
    expected = pairwise_take(limit, pending, latest)
    batch, stale = BatchBuilder(limit).take_batch(pending, latest)
    assert (batch, stale, pending) == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_transactions.filter(bool))
def test_validate_batch_names_the_pairwise_pair(transactions):
    expected = pairwise_refusal(transactions)
    if expected is None:
        validate_batch(transactions)
    else:
        with pytest.raises(ProtocolInvariantError) as refused:
            validate_batch(transactions)
        assert str(refused.value) == expected


#: One batch member ``(reads, writes)`` and a newcomer, per conflict kind.
KINDS = {
    "write-write": ((("a",), ("b",)), ((), ("b",))),
    "reads what the batch writes": ((("a",), ("b",)), (("b",), ())),
    "writes what the batch reads": ((("a",), ("b",)), ((), ("a",))),
    "reads what the batch reads": ((("a",), ("b",)), (("a",), ("c",))),
}


@pytest.mark.parametrize("kind", KINDS)
def test_each_conflict_kind(kind):
    member, newcomer = (make_txn(i, r, w, i + 1) for i, (r, w) in enumerate(KINDS[kind]))
    claims = ItemClaims()
    claims.add(member)
    conflicts = kind != "reads what the batch reads"
    assert newcomer.conflicts_with(member) is conflicts
    assert claims.clash(newcomer) is conflicts
    pending = [(member, None), (newcomer, None)]
    batch, _ = BatchBuilder(2).take_batch(pending)
    assert len(batch) == (1 if conflicts else 2)
    if conflicts:
        with pytest.raises(ProtocolInvariantError, match="t0 and t1"):
            validate_batch([member, newcomer])
    else:
        validate_batch([member, newcomer])
