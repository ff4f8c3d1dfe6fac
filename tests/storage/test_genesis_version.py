"""One genesis version: every item that starts at the initial value holds
``GENESIS_VERSION``, in a new datastore and in one restored from a dump.

The version is picked by exact type and value: ``False``, ``0.0`` and
``-0.0`` equal the initial ``0`` but encode apart, so an item holding one of
them keeps a version of its own.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.encoding import canonical_decode
from repro.common.timestamps import Timestamp
from repro.recovery.manager import restore_from_state
from repro.recovery.statestore import MemoryStateStore, SnapshotRecord, _snapshot
from repro.storage.datastore import DataStore
from repro.storage.record import (
    GENESIS_VERSION,
    INITIAL_VALUE,
    RecordVersion,
    initial_version,
    shared_version,
)
from repro.storage.shard import INITIAL_VALUE as SHARD_INITIAL_VALUE

#: Equal to the initial value, but not it.
LOOKALIKES = (False, 0.0, -0.0, "0")


def _items(size: int = 40) -> dict:
    items = {f"item-{index:04d}": INITIAL_VALUE for index in range(size)}
    for index, value in enumerate(LOOKALIKES):
        items[f"item-{index:04d}"] = value
    items[f"item-{size - 1:04d}"] = 7
    return items


def _versions(store: DataStore) -> dict:
    return {item: store.record(item).versions for item in store.item_ids()}


def _assert_genesis_shared(store: DataStore, items: dict) -> None:
    for item, versions in _versions(store).items():
        assert len(versions) == 1
        (version,) = versions
        if type(items[item]) is int and items[item] == INITIAL_VALUE:
            assert version is GENESIS_VERSION
        else:
            assert version is not GENESIS_VERSION
            assert repr(version.value) == repr(items[item])
            assert version.wts is Timestamp.zero() and version.rts is Timestamp.zero()


def test_the_genesis_version_is_the_initial_value_at_the_genesis_stamp():
    assert SHARD_INITIAL_VALUE is INITIAL_VALUE
    assert GENESIS_VERSION == RecordVersion(INITIAL_VALUE, Timestamp.zero(), Timestamp.zero())
    assert initial_version(INITIAL_VALUE) is GENESIS_VERSION


@pytest.mark.parametrize("value", LOOKALIKES, ids=repr)
def test_a_lookalike_of_the_initial_value_gets_a_version_of_its_own(value):
    version = initial_version(value)
    assert version is not GENESIS_VERSION
    assert repr(version.value) == repr(value)
    assert shared_version(version) is version


def test_a_new_datastore_shares_the_genesis_version():
    items = _items()
    _assert_genesis_shared(DataStore(items), items)


def test_an_import_shares_the_genesis_version_and_keeps_the_root():
    items = _items()
    store = DataStore(items)
    restored = DataStore.import_state(store.export_state())
    assert restored.merkle_root() == store.merkle_root()
    _assert_genesis_shared(restored, items)


def test_an_import_of_plain_wire_forms_shares_the_genesis_version():
    items = _items()
    store = DataStore(items)
    state = store.export_state()
    plain = {
        "multi_versioned": state["multi_versioned"],
        "items": {
            item: [canonical_decode(version.wire_bytes()) for version in versions]
            for item, versions in state["items"].items()
        },
    }
    restored = DataStore.import_state(plain)
    assert restored.merkle_root() == store.merkle_root()
    _assert_genesis_shared(restored, items)


def test_a_restored_snapshot_shares_the_genesis_version_and_keeps_the_root():
    items = _items()
    store = DataStore(items)
    journal = MemoryStateStore()
    journal.initialize("s0", store.export_state())
    restored, _ = restore_from_state(journal.load())
    assert restored.merkle_root() == store.merkle_root()
    _assert_genesis_shared(restored, items)


def test_a_version_written_later_is_not_the_genesis_version():
    store = DataStore(_items())
    stamp = Timestamp(3, "c")
    store.apply_commit(stamp, {"item-0010": INITIAL_VALUE}, reads=["item-0011"])
    restored = DataStore.import_state(store.export_state())
    assert restored.merkle_root() == store.merkle_root()
    for each in (store, restored):
        first, written = each.record("item-0010").versions
        assert first is GENESIS_VERSION
        assert written is not GENESIS_VERSION and written.wts == stamp
        assert each.record("item-0011").latest.rts == stamp
    # The one shared object is never changed in place by a read.
    assert GENESIS_VERSION.rts is Timestamp.zero()


@st.composite
def _committed_stores(draw):
    """A datastore of look-alikes and genesis items after a few commits."""
    ids = draw(
        st.lists(st.sampled_from(["b", "aa", "é", "éa", "item-7"]), min_size=1, unique=True)
    )
    initial = st.sampled_from((INITIAL_VALUE, INITIAL_VALUE, 7) + LOOKALIKES)
    store = DataStore(
        {item: draw(initial) for item in ids}, multi_versioned=draw(st.booleans())
    )
    for counter in range(1, draw(st.integers(0, 4)) + 1):
        writes = draw(st.dictionaries(st.sampled_from(ids), initial, max_size=3))
        reads = draw(st.lists(st.sampled_from(ids), max_size=2, unique=True))
        store.apply_commit(Timestamp(counter, "c"), writes, reads)
    return store


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_committed_stores())
def test_a_snapshot_read_back_and_imported_keeps_the_root(store):
    record = SnapshotRecord.from_bytes(_snapshot("s0", store.export_state(), None, 0))
    restored = DataStore.import_state(
        {"multi_versioned": record.multi_versioned, "items": record.items}
    )
    assert restored.merkle_root() == store.merkle_root()
    assert _versions(restored) == _versions(store)
