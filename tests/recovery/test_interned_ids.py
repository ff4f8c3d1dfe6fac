"""Reading one record twice yields one ``str`` per id.

A restored WAL, a catch-up reply and a decoded export are per-reader copies
of blocks many servers hold, so the byte readers intern the ids they read:
every decode of a transaction id, item id or client id shares one string
(DESIGN.md section 6, "Who owns the bytes").  They intern only where an
interned string is mortal; on CPython 3.12 each decode keeps its own copy.
"""

from __future__ import annotations

import sys

import pytest

from repro.common.encoding import canonical_decode, canonical_encode, intern_id
from repro.common.timestamps import Timestamp
from repro.net.forms import AuditVoRequest, StateResponse
from repro.txn.operations import ReadOp, WriteOp

#: Whether this interpreter's byte readers intern what they decode.
SHARED = intern_id is sys.intern


def _ids(blocks) -> list:
    """Every transaction, item and client id the blocks' transactions carry."""
    ids = []
    for block in blocks:
        for txn in block.transactions:
            ids += [txn.txn_id, txn.client_id, txn.commit_ts.client_id]
            for entry in (*txn.read_set, *txn.write_set):
                ids += [entry.item_id, entry.rts.client_id, entry.wts.client_id]
    return ids


def _assert_shared(first: list, second: list, live: list) -> None:
    assert first == second == live
    # Two-character ids at least: CPython shares one-character strings anyway.
    longer = [(a, b) for a, b in zip(first, second) if len(a) > 1]
    assert len(longer) > len(first) // 2
    assert all((a is b) is SHARED for a, b in longer)


@pytest.fixture
def system(small_system):
    """A run whose later transactions read what earlier ones wrote, so read
    entries carry client-stamped timestamps, not only the genesis stamp."""
    items = [small_system.shard_map.items_of(sid)[0] for sid in small_system.servers]
    for client_index in range(2):
        for item in items:
            small_system.run_transaction(
                [ReadOp(item), WriteOp(item, client_index)], client_index=client_index
            )
    return small_system


def test_two_restores_of_one_wal_share_every_id(system):
    server = system.server("s0")
    first, second = server.state_store.load(), server.state_store.load()
    blocks = [block for block, _ in first.blocks]
    assert len(blocks) == server.log.height
    _assert_shared(_ids(blocks), _ids(block for block, _ in second.blocks), _ids(server.log))
    assert list(first.datastore_state["items"]) == list(second.datastore_state["items"])
    assert all(
        (a is b) is SHARED
        for a, b in zip(first.datastore_state["items"], second.datastore_state["items"])
    )


def test_two_reads_of_one_catch_up_reply_share_every_id(system):
    log = system.server("s1").log
    reply = StateResponse(log.height, tuple(log)).wire_bytes()
    first, second = StateResponse.from_bytes(reply), StateResponse.from_bytes(reply)
    _assert_shared(_ids(first.blocks), _ids(second.blocks), _ids(log))


def test_two_generic_decodes_share_every_dict_key(system):
    log = system.server("s2").log
    exported = canonical_encode(list(log))
    first, second = canonical_decode(exported), canonical_decode(exported)
    keys = [
        (a_key, b_key)
        for a_block, b_block in zip(first, second)
        for a_txn, b_txn in zip(a_block["body"]["transactions"], b_block["body"]["transactions"])
        for a_key, b_key in zip(a_txn, b_txn)
    ]
    assert keys and all((a is b) is SHARED for a, b in keys)


def test_a_decoded_id_stays_mortal():
    """Bytes from a peer cannot pin memory through the ids they carry: an id the
    readers return is freed with its last holder, never made immortal."""
    item, client, key = ("".join(("mortal-", name)) for name in ("item", "client", "key"))
    request = AuditVoRequest.from_bytes(AuditVoRequest(item, Timestamp(7, client)).wire_bytes())
    (decoded_key,) = canonical_decode(canonical_encode({key: 1}))
    for decoded in (request.item_id, request.at.client_id, decoded_key):
        # An immortal object's count reads 2**32 - 1 or more (PEP 683).
        assert sys.getrefcount(decoded) < 1000, decoded
