"""One genesis stamp: every item starts at ``Timestamp.zero()``, and a stamp
that crossed the wire is that same object again.

A live datastore shares one genesis stamp among all its versions.  Its
readers used to mint a new ``Timestamp(0, "")`` for every one they read, so a
restored server held one object per timestamp where the live one held one in
all, and a client held a new one per reply.
"""

from __future__ import annotations

import gc

from repro.common.encoding import canonical_decode
from repro.common.timestamps import Timestamp
from repro.net.forms import read_reply
from repro.net.message import MessageType
from repro.recovery.manager import restore_from_state
from repro.recovery.statestore import MemoryStateStore
from repro.storage.datastore import DataStore, ReadResult


def _restored(items: dict) -> DataStore:
    journal = MemoryStateStore()
    journal.initialize("s0", DataStore(items).export_state())
    store, _ = restore_from_state(journal.load())
    return store


def _timestamps() -> int:
    return sum(1 for value in gc.get_objects() if type(value) is Timestamp)


def test_a_restored_genesis_snapshot_holds_the_shared_stamp():
    store = _restored({f"item-{index}": index for index in range(20)})
    versions = [version for item in store.item_ids() for version in store.versions(item)]
    assert len(versions) == 20
    for version in versions:
        assert version.wts is Timestamp.zero()
        assert version.rts is Timestamp.zero()


def test_a_read_reply_for_an_untouched_item_holds_the_shared_stamp():
    answer = DataStore({"item-1": 41}).read("item-1")
    reply = read_reply(MessageType.READ, "s0", canonical_decode(answer.wire_bytes()))
    assert type(reply) is ReadResult and reply == answer
    assert reply.rts is Timestamp.zero()
    assert reply.wts is Timestamp.zero()


def test_restoring_a_genesis_snapshot_makes_no_timestamp():
    items = {f"item-{index:04d}": index for index in range(1_000)}
    journal = MemoryStateStore()
    journal.initialize("s0", DataStore(items).export_state())
    gc.collect()
    before = _timestamps()
    store, _ = restore_from_state(journal.load())
    gc.collect()
    assert len(store) == 1_000
    assert _timestamps() == before
