"""Tests for the per-shard datastore."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.encoding import canonical_decode, canonical_encode
from repro.common.errors import FidesError, StorageError
from repro.common.timestamps import Timestamp
from repro.crypto.merkle import MerkleTree, verify_inclusion
from repro.storage.datastore import DataStore

from store_helpers import apply_commit


def make_store(count: int = 8, multi: bool = True):
    return DataStore({f"item-{i}": 0 for i in range(count)}, multi_versioned=multi)


class TestDataStoreReads:
    def test_initial_read_has_zero_timestamps(self):
        store = make_store()
        result = store.read("item-3")
        assert result.value == 0
        assert result.rts == Timestamp.zero()
        assert result.wts == Timestamp.zero()

    def test_unknown_item_raises(self):
        with pytest.raises(StorageError):
            make_store().read("missing")

    def test_len_and_contains(self):
        store = make_store(5)
        assert len(store) == 5
        assert "item-0" in store and "item-9" not in store


class TestDataStoreCommits:
    def test_apply_commit_updates_values_and_timestamps(self):
        store = make_store()
        ts = Timestamp(5, "c")
        apply_commit(store, ts, {"item-1": 11}, reads=["item-2"])
        assert store.read("item-1").value == 11
        assert store.read("item-1").wts == ts
        assert store.read("item-2").rts == ts
        assert store.read("item-2").value == 0

    def test_apply_commit_unknown_item_rejected(self):
        store = make_store()
        with pytest.raises(StorageError):
            apply_commit(store, Timestamp(1, "c"), {"missing": 1})

    def test_commit_returns_mht_work(self):
        store = make_store(16)
        writes = {"item-1": 1, "item-2": 2}
        root, expected = store.speculative_root(writes)
        work = apply_commit(store, Timestamp(1, "c"), writes)
        assert work > 0
        assert work == expected
        assert store.merkle_root() == root

    def test_multi_versioned_history_readable(self):
        store = make_store()
        apply_commit(store, Timestamp(5, "c"), {"item-1": 11})
        apply_commit(store, Timestamp(9, "c"), {"item-1": 22})
        assert store.read_version("item-1", Timestamp(5, "c")).value == 11
        assert store.read_version("item-1", Timestamp(9, "c")).value == 22

    def test_single_versioned_store_rejects_history_proofs(self):
        store = make_store(multi=False)
        apply_commit(store, Timestamp(5, "c"), {"item-1": 11})
        with pytest.raises(StorageError):
            store.verification_object_at("item-1", Timestamp(5, "c"))


class TestBatchedApply:
    def test_apply_batch_matches_sequential_commits(self):
        batched = make_store(16)
        sequential = make_store(16)
        commits = [
            (Timestamp(1, "c"), {"item-1": 10, "item-2": 20}, ["item-3"]),
            (Timestamp(2, "c"), {"item-2": 21, "item-5": 50}, []),
            (Timestamp(3, "c"), {"item-9": 90}, ["item-1"]),
        ]
        batched.apply_batch(commits)
        for commit_ts, writes, reads in commits:
            apply_commit(sequential, commit_ts, writes, reads)
        assert batched.snapshot() == sequential.snapshot()
        assert batched.merkle_root() == sequential.merkle_root()
        for item in ("item-1", "item-2", "item-3"):
            assert batched.read(item).rts == sequential.read(item).rts
            assert batched.read(item).wts == sequential.read(item).wts

    def test_apply_batch_orders_by_commit_timestamp(self):
        store = make_store(8)
        # Handed in out of order: the ts-2 write must win over the ts-1 write.
        store.apply_batch(
            [
                (Timestamp(2, "c"), {"item-0": 200}, []),
                (Timestamp(1, "c"), {"item-0": 100}, []),
            ]
        )
        assert store.read("item-0").value == 200
        assert store.read("item-0").wts == Timestamp(2, "c")

    def test_apply_batch_does_fewer_hashes_than_sequential(self):
        batched = make_store(64)
        sequential = make_store(64)
        commits = [
            (Timestamp(i + 1, "c"), {f"item-{i}": i, f"item-{i + 8}": i}, [])
            for i in range(8)
        ]
        batched_work = batched.apply_batch(commits)
        sequential_work = sum(
            apply_commit(sequential, ts, writes, reads) for ts, writes, reads in commits
        )
        assert batched_work < sequential_work
        assert batched.merkle_root() == sequential.merkle_root()

    def test_apply_batch_rejects_unknown_items_before_mutating(self):
        store = make_store(4)
        root = store.merkle_root()
        with pytest.raises(StorageError):
            store.apply_batch(
                [
                    (Timestamp(1, "c"), {"item-0": 1}, []),
                    (Timestamp(2, "c"), {"missing": 2}, []),
                ]
            )
        assert store.merkle_root() == root
        assert store.read("item-0").value == 0

    def test_historical_tree_cache_reused_and_invalidated(self):
        store = make_store(8)
        apply_commit(store, Timestamp(5, "c"), {"item-2": 11})
        apply_commit(store, Timestamp(9, "c"), {"item-2": 22, "item-3": 33})
        proof_a, root_a = store.verification_object_at("item-2", Timestamp(5, "c"))
        proof_b, root_b = store.verification_object_at("item-3", Timestamp(5, "c"))
        assert root_a == root_b  # served from the same cached historical tree
        assert verify_inclusion("item-2", 11, proof_a, root_a)
        assert verify_inclusion("item-3", 0, proof_b, root_b)
        # A new commit invalidates the cache but not the historical answer.
        apply_commit(store, Timestamp(12, "c"), {"item-4": 44})
        proof_c, root_c = store.verification_object_at("item-2", Timestamp(5, "c"))
        assert root_c == root_a
        assert verify_inclusion("item-2", 11, proof_c, root_c)

    def test_historical_tree_reflects_injected_corruption(self):
        # Lemma 2: a corrupted store must fail authentication even when the
        # audit asks for a historical version served via the cached tree.
        store = make_store(8)
        apply_commit(store, Timestamp(5, "c"), {"item-2": 11})
        _, honest_root = store.verification_object_at("item-2", Timestamp(5, "c"))
        store.corrupt("item-2", 666)
        proof, root = store.verification_object_at("item-2", Timestamp(5, "c"))
        assert root != honest_root
        assert not verify_inclusion("item-2", 666, proof, honest_root)


class TestDataStoreMerkleIntegration:
    def test_merkle_root_tracks_commits(self):
        store = make_store()
        before = store.merkle_root()
        apply_commit(store, Timestamp(1, "c"), {"item-4": 44})
        assert store.merkle_root() != before

    def test_merkle_root_matches_snapshot_rebuild(self):
        store = make_store()
        apply_commit(store, Timestamp(1, "c"), {"item-4": 44, "item-5": 55})
        assert store.merkle_root() == MerkleTree(store.snapshot()).root

    def test_speculative_root_does_not_mutate(self):
        store = make_store()
        baseline = store.merkle_root()
        root, work = store.speculative_root({"item-2": 99})
        assert root != baseline
        assert work > 0
        assert store.merkle_root() == baseline
        assert store.read("item-2").value == 0

    def test_speculative_root_matches_actual_commit(self):
        store = make_store()
        speculative, _ = store.speculative_root({"item-2": 99})
        apply_commit(store, Timestamp(1, "c"), {"item-2": 99})
        assert store.merkle_root() == speculative

    def test_speculative_root_unknown_item(self):
        with pytest.raises(StorageError):
            make_store().speculative_root({"missing": 1})

    def test_refused_speculative_root_leaves_the_store_as_it_was(self):
        """An unencodable write used to raise after the tree was half-written."""
        store = make_store()
        baseline = store.merkle_root()
        proofs = {item_id: store.verification_object(item_id) for item_id in store.item_ids()}
        with pytest.raises(TypeError):
            store.speculative_root({"item-1": 100, "item-2": {1, 2}})
        assert store.merkle_root() == baseline
        assert {
            item_id: store.verification_object(item_id) for item_id in store.item_ids()
        } == proofs
        assert store.merkle_root() == MerkleTree(store.snapshot()).root
        root, _ = store.speculative_root({"item-3": 7})
        apply_commit(store, Timestamp(1, "c"), {"item-3": 7})
        assert store.merkle_root() == root == MerkleTree(store.snapshot()).root

    def test_verification_object_current(self):
        store = make_store()
        apply_commit(store, Timestamp(1, "c"), {"item-2": 99})
        proof = store.verification_object("item-2")
        assert verify_inclusion("item-2", 99, proof, store.merkle_root())

    def test_verification_object_at_historical_version(self):
        store = make_store()
        apply_commit(store, Timestamp(5, "c"), {"item-2": 11})
        apply_commit(store, Timestamp(9, "c"), {"item-2": 22})
        proof, root = store.verification_object_at("item-2", Timestamp(5, "c"))
        assert verify_inclusion("item-2", 11, proof, root)
        assert not verify_inclusion("item-2", 22, proof, root)

    def test_corrupt_breaks_authentication(self):
        store = make_store()
        apply_commit(store, Timestamp(5, "c"), {"item-2": 11})
        committed_root = store.merkle_root()
        store.corrupt("item-2", 666)
        proof = store.verification_object("item-2")
        # The corrupted value cannot authenticate against the root computed
        # when the correct value was committed (Lemma 2's core argument).
        assert not verify_inclusion("item-2", 666, proof, committed_root)

    @settings(max_examples=20, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from([f"item-{i}" for i in range(8)]),
            st.integers(min_value=-1000, max_value=1000),
            min_size=1,
            max_size=4,
        )
    )
    def test_speculative_and_real_roots_agree(self, writes):
        store = make_store()
        speculative, _ = store.speculative_root(writes)
        apply_commit(store, Timestamp(1, "c"), writes)
        assert store.merkle_root() == speculative


class TestSnapshotImport:
    """``import_state`` reads a snapshot record back from disk: what it is
    handed is bytes someone may have edited, so a field of the wrong type is
    refused, not coerced (``Timestamp(*["3", 7])`` and ``bool(1)`` both "work")."""

    def _state(self):
        store = make_store()
        apply_commit(store, Timestamp(3, "c"), {"item-1": 5})
        return canonical_decode(canonical_encode(store.export_state()))

    def test_an_exported_state_imports_to_the_same_store(self):
        state = self._state()
        assert canonical_encode(DataStore.import_state(state).export_state()) == (
            canonical_encode(state)
        )

    @pytest.mark.parametrize(
        "damage",
        [
            lambda state: state["items"]["item-1"][-1].update(rts=["3", 7]),
            lambda state: state["items"]["item-1"][0].update(wts=[0]),
            lambda state: state["items"]["item-1"][0].pop("value"),
            lambda state: state.update(multi_versioned=1),
            lambda state: state["items"]["item-1"].clear(),
        ],
        ids=[
            "rts-types-swapped",
            "wts-short",
            "value-missing",
            "multi-versioned-int",
            "no-versions",
        ],
    )
    def test_a_corrupt_snapshot_is_refused_not_coerced(self, damage):
        state = self._state()
        damage(state)
        with pytest.raises(FidesError):
            DataStore.import_state(state)
