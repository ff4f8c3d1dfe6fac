"""Shared factories for the recovery test suite."""

from __future__ import annotations

import pytest

from repro.common.timestamps import Timestamp
from repro.crypto.cosi import cosign
from repro.crypto.keys import keypair_for
from repro.ledger.block import Block, BlockDecision
from repro.txn.transaction import ReadSetEntry, Transaction, WriteSetEntry


def build_transaction(index: int = 0) -> Transaction:
    ts = Timestamp(7 + index, "client-0")
    return Transaction(
        txn_id=f"txn-{index}",
        client_id="client-0",
        commit_ts=ts,
        read_set=(
            ReadSetEntry("item-1", 41, rts=Timestamp(3, "c"), wts=Timestamp(2, "c")),
        ),
        write_set=(
            WriteSetEntry(
                "item-1", 42, old_value=41, rts=Timestamp(3, "c"), wts=Timestamp(2, "c")
            ),
            WriteSetEntry("item-9", "blind", blind=True),
        ),
    )


def build_block(group=None, signers=("s0", "s1"), height: int = 4) -> Block:
    block = Block(
        height=height,
        transactions=(build_transaction(0), build_transaction(1)),
        roots={"s0": b"\x11" * 32, "s1": b"\x22" * 32},
        decision=BlockDecision.COMMIT,
        previous_hash=b"\x33" * 32,
        group=group,
    )
    keypairs = {sid: keypair_for(sid, seed=5) for sid in signers}
    return block.with_cosign(cosign(block.signing_digest(), keypairs))


@pytest.fixture
def transaction_factory():
    return build_transaction


@pytest.fixture
def block_factory():
    return build_block
