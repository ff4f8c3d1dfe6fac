"""A datastore's version chains against a reference model of plain lists.

``Model`` is the per-item chain semantics written out directly: every item
holds a list of versions, oldest first; a read advances the latest version's
``rts`` unless it is below it; a multi-versioned write appends, a
single-versioned one replaces the chain; corruption overwrites the latest
value without the Merkle tree seeing it.  As under OCC, an item's writes
come in commit-timestamp order, so a chain is in that order too.  Hypothesis
drives the model and a :class:`DataStore` through the same random operations, including a dump and restore, and holds
every read, historical read, historical verification object, Merkle root and
snapshot byte to the model's.  The values include ``False``, ``0.0`` and
``-0.0``, which equal the initial ``0`` but encode apart.  ``TestOneChain``
gives each rule of a single chain one worked example.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.encoding import canonical_encode
from repro.common.errors import StorageError
from repro.common.timestamps import Timestamp
from repro.crypto.merkle import MerkleTree
from repro.recovery.statestore import SnapshotRecord, _snapshot
from repro.storage.datastore import DataStore
from repro.storage.record import GENESIS_CHAIN, GENESIS_VERSION, INITIAL_VALUE, RecordVersion

from store_helpers import apply_commit

ZERO = Timestamp.zero()
IDS = ("b", "aa", "é", "item-7", "item-8")
VALUES = (0, False, 0.0, -0.0, 1, "0")


class Model:
    def __init__(self, items, multi_versioned):
        self.multi = multi_versioned
        self.chains = {item: [RecordVersion(value, ZERO, ZERO)] for item, value in items.items()}
        #: What the Merkle tree was last built or updated from.
        self.tree = dict(items)

    def apply_batch(self, commits):
        for ts, writes, reads in sorted(commits, key=lambda commit: commit[0]):
            for item in reads:
                latest = self.chains[item][-1]
                if not ts < latest.rts:
                    self.chains[item][-1] = RecordVersion(latest.value, latest.wts, ts)
            for item, value in writes.items():
                written = RecordVersion(value, ts, ts)
                if self.multi:
                    self.chains[item].append(written)
                else:
                    self.chains[item] = [written]
                self.tree[item] = value

    def corrupt(self, item, value):
        latest = self.chains[item][-1]
        self.chains[item][-1] = RecordVersion(value, latest.wts, latest.rts)

    def restore(self):
        """The tree is rebuilt from the stored values, corrupted ones included."""
        self.tree = {item: chain[-1].value for item, chain in self.chains.items()}

    def version_at(self, item, ts):
        visible = [version for version in self.chains[item] if version.wts <= ts]
        return visible[-1] if visible else None

    def snapshot_bytes(self):
        def plain(version):
            wts, rts = version.wts.as_tuple(), version.rts.as_tuple()
            return {"value": version.value, "wts": wts, "rts": rts}

        items = {item: [plain(version) for version in chain] for item, chain in self.chains.items()}
        return canonical_encode(
            {
                "kind": "snapshot",
                "server_id": "s0",
                "next_height": 0,
                "datastore": {"multi_versioned": self.multi, "items": items},
                "checkpoint": None,
            }
        )

    def is_genesis(self, item):
        """The item holds exactly the initial value at the genesis stamp."""
        first, *rest = self.chains[item]
        exact = type(first.value) is type(INITIAL_VALUE) and first.value == INITIAL_VALUE
        return not rest and exact and first.wts == ZERO and first.rts == ZERO


_stamps = st.builds(Timestamp, st.integers(0, 9), st.sampled_from(["c", "d"]))
_values = st.sampled_from(VALUES)
_commits = st.lists(
    st.tuples(
        _stamps,
        st.dictionaries(st.sampled_from(IDS), _values, max_size=3),
        st.lists(st.sampled_from(IDS), max_size=3),
    ),
    min_size=1,
    max_size=3,
)
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("batch"), _commits),
        st.tuples(st.just("corrupt"), st.sampled_from(IDS), _values),
        st.tuples(st.just("restore"), st.booleans()),
    ),
    max_size=8,
)
_initial = st.fixed_dictionaries({item: st.sampled_from(VALUES + (0, 0, 0)) for item in IDS})


def _in_order(commits, model: Model):
    """``commits`` without the writes OCC would abort for being older than
    the item's latest version: an item's chain is in commit-timestamp order."""
    latest = {item: chain[-1].wts for item, chain in model.chains.items()}
    kept = {}
    for index in sorted(range(len(commits)), key=lambda index: commits[index][0]):
        ts, writes, reads = commits[index]
        writes = {item: value for item, value in writes.items() if latest[item] < ts}
        latest.update(dict.fromkeys(writes, ts))
        kept[index] = (ts, writes, reads)
    return [kept[index] for index in range(len(commits))]


def _snapshot_of(store: DataStore) -> bytes:
    return _snapshot("s0", store.export_state(), None, 0)


def _restore(store: DataStore, through_bytes: bool) -> DataStore:
    if not through_bytes:
        return DataStore.import_state(store.export_state())
    record = SnapshotRecord.from_bytes(_snapshot_of(store))
    return DataStore.import_state(
        {"multi_versioned": record.multi_versioned, "items": record.items}
    )


def _assert_agree(store: DataStore, model: Model, untouched) -> None:
    for item in IDS:
        assert store.versions(item) == tuple(model.chains[item])
        latest = model.chains[item][-1]
        read = store.read(item)
        assert repr((read.value, read.rts, read.wts)) == repr(
            (latest.value, latest.rts, latest.wts)
        )
        for at in (ZERO, Timestamp(4, "c"), Timestamp(9, "d")):
            expected = model.version_at(item, at)
            if expected is None:
                with pytest.raises(StorageError):
                    store.read_version(item, at)
            else:
                got = store.read_version(item, at)
                assert repr((got.value, got.rts, got.wts)) == repr(
                    (expected.value, expected.rts, expected.wts)
                )
        if item in untouched:
            assert store.versions(item) is GENESIS_CHAIN
    assert store.merkle_root() == MerkleTree(model.tree).root
    assert _snapshot_of(store) == model.snapshot_bytes()
    for at in (ZERO, Timestamp(4, "c"), Timestamp(9, "d")):
        if not model.multi:
            with pytest.raises(StorageError):
                store.verification_object_at(IDS[0], at)
            continue
        historical = MerkleTree(
            {item: model.version_at(item, at).value for item in IDS}
        )
        for item in IDS:
            assert store.verification_object_at(item, at) == (
                historical.verification_object(item),
                historical.root,
            )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_initial, st.booleans(), _operations)
def test_a_store_keeps_the_chains_of_the_reference_model(items, multi_versioned, operations):
    store = DataStore(items, multi_versioned=multi_versioned)
    model = Model(items, multi_versioned)
    untouched = {item for item in IDS if model.is_genesis(item)}
    dumped = []
    _assert_agree(store, model, untouched)
    for operation in operations:
        kind, *args = operation
        if kind == "batch":
            commits = _in_order(*args, model)
            store.apply_batch(commits)
            model.apply_batch(commits)
            for _, writes, reads in commits:
                untouched.difference_update(writes, reads)
        elif kind == "corrupt":
            store.corrupt(*args)
            model.corrupt(*args)
            untouched.discard(args[0])
        else:
            (through_bytes,) = args
            dumped.append((store, _snapshot_of(store)))
            store = _restore(store, through_bytes)
            model.restore()
            untouched = {item for item in IDS if model.is_genesis(item)}
        _assert_agree(store, model, untouched)
    # A restored store shares no chain with the store it was dumped from.
    for old, old_bytes in dumped:
        assert _snapshot_of(old) == old_bytes
    assert GENESIS_CHAIN == (GENESIS_VERSION,)
    assert GENESIS_VERSION == RecordVersion(INITIAL_VALUE, ZERO, ZERO)
    assert GENESIS_VERSION.wts is ZERO and GENESIS_VERSION.rts is ZERO


def test_a_chain_that_starts_later_has_no_earlier_version():
    chain = tuple(
        RecordVersion(value, Timestamp(ts, "c"), Timestamp(ts, "c"))
        for value, ts in ((1, 5), (2, 7))
    )
    store = DataStore.import_state({"multi_versioned": True, "items": {"x": chain}})
    with pytest.raises(StorageError):
        store.read_version("x", Timestamp(1, "c"))
    assert store.read_version("x", Timestamp(5, "c")).value == 1
    assert store.read_version("x", Timestamp(6, "c")).value == 1
    assert store.versions("x") == chain


def _later_chain(*stamps):
    """A store whose one item ``x`` starts at ``stamps[0]``, not at genesis."""
    chain = tuple(
        RecordVersion(value, Timestamp(ts, "c"), Timestamp(ts, "c"))
        for value, ts in enumerate(stamps, start=1)
    )
    return DataStore.import_state({"multi_versioned": True, "items": {"x": chain}})


class TestOneChain:
    """The rules of one item's chain, one worked example each."""

    def test_latest_reflects_last_append(self):
        store = DataStore({"x": 0})
        apply_commit(store, Timestamp(5, "c"), {"x": 10})
        assert store.read("x").value == 10
        assert store.read("x").wts == Timestamp(5, "c")
        assert store.versions("x")[-1] == RecordVersion(10, Timestamp(5, "c"), Timestamp(5, "c"))

    def test_multi_versioned_keeps_history(self):
        store = DataStore({"x": 0})
        apply_commit(store, Timestamp(5, "c"), {"x": 10})
        apply_commit(store, Timestamp(9, "c"), {"x": 20})
        assert len(store.versions("x")) == 3
        assert store.versions("x")[0] == GENESIS_VERSION
        assert store.read_version("x", Timestamp(5, "c")).value == 10
        assert store.read_version("x", Timestamp(20, "c")).value == 20

    def test_single_versioned_discards_history(self):
        store = DataStore({"x": 0}, multi_versioned=False)
        apply_commit(store, Timestamp(5, "c"), {"x": 10})
        apply_commit(store, Timestamp(9, "c"), {"x": 20})
        assert store.versions("x") == (RecordVersion(20, Timestamp(9, "c"), Timestamp(9, "c")),)
        assert store.read("x").value == 20

    def test_record_read_advances_rts_monotonically(self):
        store = DataStore({"x": 0})
        apply_commit(store, Timestamp(7, "c"), {}, reads=["x"])
        assert store.read("x").rts == Timestamp(7, "c")
        apply_commit(store, Timestamp(3, "c"), {}, reads=["x"])
        assert store.read("x").rts == Timestamp(7, "c")
        assert store.read("x").wts == ZERO
        assert len(store.versions("x")) == 1

    def test_version_at_before_first_raises(self):
        store = _later_chain(5)
        with pytest.raises(StorageError):
            store.read_version("x", Timestamp(1, "c"))
        assert store.read_version("x", Timestamp(5, "c")).value == 1

    def test_empty_record_latest_raises(self):
        store = DataStore({"x": 0})
        with pytest.raises(StorageError):
            store.read("y")
        with pytest.raises(StorageError):
            store.versions("y")
