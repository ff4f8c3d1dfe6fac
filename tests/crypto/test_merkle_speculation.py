"""The vote phase's speculative Merkle root leaves no trace.

``DataStore.speculative_root(writes)`` answers "what would the root be" and
reports the hashes that answer cost (``mht_hashes`` in a vote, and what the
virtual-time model charges).  Both are what applying the writes to a *copy* of
the tree gives, and the store itself reads exactly as before: same root, same
values, same verification object for every item.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.timestamps import Timestamp
from repro.crypto.merkle import MerkleTree, verify_inclusion
from repro.storage.datastore import DataStore

from store_helpers import apply_commit

_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.lists(st.integers(min_value=0, max_value=9), max_size=3),
)


@st.composite
def _stores_and_writes(draw):
    """A store of 1-65 items and a non-empty write set over some of them."""
    size = draw(st.integers(min_value=1, max_value=65))
    items = {f"k{index}": draw(_values) for index in range(size)}
    touched = draw(
        st.lists(st.sampled_from(sorted(items)), min_size=1, max_size=size, unique=True)
    )
    return items, {item_id: draw(_values) for item_id in touched}


def _observed(store: DataStore) -> tuple:
    """Everything a reader can learn about the store's tree."""
    return (
        store.merkle_root(),
        store.snapshot(),
        {item_id: store.verification_object(item_id) for item_id in store.item_ids()},
    )


class TestSpeculativeRoot:
    @settings(max_examples=120, deadline=None)
    @given(_stores_and_writes())
    def test_equals_a_copy_updated_and_leaves_the_store_as_it_was(self, case):
        items, writes = case
        store = DataStore(items)
        before = _observed(store)

        scratch = MerkleTree(store.snapshot()).clone()
        expected_work = scratch.update_many(writes)

        assert store.speculative_root(writes) == (scratch.root, expected_work)
        assert _observed(store) == before
        # ... and asking again is asking the same question.
        assert store.speculative_root(writes) == (scratch.root, expected_work)
        assert _observed(store) == before

    @settings(max_examples=40, deadline=None)
    @given(_stores_and_writes())
    def test_a_commit_after_a_speculation_lands_on_the_speculated_root(self, case):
        items, writes = case
        store = DataStore(items)
        root, work = store.speculative_root(writes)
        assert apply_commit(store, Timestamp(1, "c1"), writes) == work
        assert store.merkle_root() == root
        for item_id in store.item_ids():
            assert verify_inclusion(
                item_id, store.snapshot()[item_id], store.verification_object(item_id), root
            )

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 9, 31, 33, 64, 65])
    def test_every_single_leaf_of_every_shape(self, size):
        """Non-powers of two put padding leaves beside real ones."""
        items = {f"k{index:02d}": index for index in range(size)}
        store = DataStore(items)
        before = _observed(store)
        for item_id in items:
            scratch = MerkleTree(items)
            work = scratch.update_many({item_id: "new"})
            assert store.speculative_root({item_id: "new"}) == (scratch.root, work)
            assert work == scratch.depth + 1
        assert _observed(store) == before

    def test_a_long_mixed_sequence_of_speculations_and_commits(self):
        rng = random.Random(23)
        items = {f"k{index}": 0 for index in range(37)}
        store = DataStore(items)
        mirror = MerkleTree(items)
        for step in range(1, 120):
            writes = {
                item_id: rng.randint(0, 10**6)
                for item_id in rng.sample(sorted(items), rng.randint(1, 12))
            }
            scratch = mirror.clone()
            work = scratch.update_many(writes)
            assert store.speculative_root(writes) == (scratch.root, work)
            assert store.merkle_root() == mirror.root
            if step % 3 == 0:
                assert apply_commit(store, Timestamp(step, "c1"), writes) == work
                mirror = scratch
        assert store.snapshot() == mirror.snapshot()

    def test_writing_the_values_already_there_costs_the_same_and_changes_nothing(self):
        items = {f"k{index}": index for index in range(10)}
        store = DataStore(items)
        root = store.merkle_root()
        speculated, work = store.speculative_root({"k3": 3, "k4": 4})
        assert speculated == root
        assert work == MerkleTree(items).update_many({"k3": 3, "k4": 4})

    def test_an_empty_write_set_is_the_current_root_for_free(self):
        store = DataStore({"a": 1, "b": 2, "c": 3})
        assert store.speculative_root({}) == (store.merkle_root(), 0)
