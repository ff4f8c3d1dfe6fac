"""Tests for Merkle Hash Trees and Verification Objects (paper Section 2.3)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import StorageError
from repro.crypto.hashing import hash_concat, hash_object
from repro.crypto.merkle import (
    MerkleTree,
    leaf_hash,
    node_hash,
    verify_inclusion,
)


def build_tree(count: int = 16):
    return MerkleTree({f"item-{i:04d}": i for i in range(count)})


class TestLabels:
    """Labels are hashed in one shot over a precomputed framing; the bytes
    hashed are ``hash_concat``'s, part for part."""

    @settings(max_examples=50, deadline=None)
    @given(st.binary(min_size=32, max_size=32), st.binary(min_size=32, max_size=32))
    def test_node_hash_of_two_digests(self, left, right):
        assert node_hash(left, right) == hash_concat(b"\x01node", left, right)

    @pytest.mark.parametrize(
        "left, right", [(b"", b""), (b"short", b"\x07" * 32), (b"\x07" * 32, b"\x08" * 33)]
    )
    def test_node_hash_of_children_that_are_not_digests(self, left, right):
        assert node_hash(left, right) == hash_concat(b"\x01node", left, right)

    @settings(max_examples=50, deadline=None)
    @given(st.text(max_size=12), st.one_of(st.none(), st.integers(), st.text(max_size=6)))
    def test_leaf_hash(self, item_id, value):
        expected = hash_concat(b"\x00leaf", item_id.encode("utf-8"), hash_object(value))
        assert leaf_hash(item_id, value) == expected


class TestMerkleTreeBasics:
    def test_root_is_deterministic(self):
        assert build_tree().root == build_tree().root

    def test_different_contents_different_roots(self):
        tree_a = MerkleTree({"a": 1, "b": 2})
        tree_b = MerkleTree({"a": 1, "b": 3})
        assert tree_a.root != tree_b.root

    def test_single_item_tree(self):
        tree = MerkleTree({"only": 42})
        proof = tree.verification_object("only")
        assert verify_inclusion("only", 42, proof, tree.root)

    def test_depth_grows_logarithmically(self):
        assert build_tree(8).depth == 3
        assert build_tree(9).depth == 4
        assert build_tree(1000).depth == 10

    def test_vo_size_matches_paper_log2_claim(self):
        # Section 2.3: the verification object has size log2(n).
        tree = build_tree(1024)
        assert len(tree.verification_object("item-0000")) == 10

    def test_contains_and_value_of(self):
        tree = build_tree(4)
        assert "item-0002" in tree
        assert tree.value_of("item-0002") == 2
        with pytest.raises(StorageError):
            tree.value_of("missing")

    def test_unknown_item_proof_raises(self):
        with pytest.raises(StorageError):
            build_tree(4).verification_object("missing")

    def test_leaves_are_ordered_by_item_id_not_insertion(self):
        forward = {f"item-{i:04d}": i for i in range(9)}
        backward = dict(reversed(list(forward.items())))
        tree = MerkleTree(backward)
        assert tree.item_ids() == sorted(forward)
        assert tree.root == MerkleTree(forward).root


class TestVerificationObjects:
    def test_proof_verifies_for_every_leaf(self):
        tree = build_tree(10)
        for item_id in tree.item_ids():
            proof = tree.verification_object(item_id)
            assert verify_inclusion(item_id, tree.value_of(item_id), proof, tree.root)

    def test_wrong_value_fails(self):
        tree = build_tree(10)
        proof = tree.verification_object("item-0003")
        assert not verify_inclusion("item-0003", 999, proof, tree.root)

    def test_wrong_item_id_fails(self):
        tree = build_tree(10)
        proof = tree.verification_object("item-0003")
        assert not verify_inclusion("item-0004", 3, proof, tree.root)

    def test_wrong_root_fails(self):
        tree = build_tree(10)
        proof = tree.verification_object("item-0003")
        assert not verify_inclusion("item-0003", 3, proof, b"\x00" * 32)

    def test_proof_from_other_leaf_fails(self):
        tree = build_tree(10)
        proof = tree.verification_object("item-0004")
        assert not verify_inclusion("item-0003", 3, proof, tree.root)


class TestIncrementalUpdates:
    def test_update_changes_root(self):
        tree = build_tree(16)
        before = tree.root
        tree.update("item-0005", 500)
        assert tree.root != before
        assert tree.value_of("item-0005") == 500

    def test_update_matches_full_rebuild(self):
        tree = build_tree(16)
        tree.update("item-0005", 500)
        tree.update("item-0011", -1)
        rebuilt = MerkleTree(tree.snapshot())
        assert tree.root == rebuilt.root

    def test_update_returns_path_length(self):
        tree = build_tree(1024)
        assert tree.update("item-0000", 7) == tree.depth + 1

    def test_update_many_shares_dirty_ancestors(self):
        # Leaves 1 and 2 share every ancestor above level 1, so the batched
        # sweep hashes 2 leaves, 2 level-1 parents, and one node per level
        # after that -- strictly less than two full root paths.
        tree = build_tree(64)
        work = tree.update_many({"item-0001": 10, "item-0002": 20})
        assert work == 2 + 2 + (tree.depth - 1)
        assert work < 2 * (tree.depth + 1)
        assert tree.root == MerkleTree(tree.snapshot()).root

    def test_update_many_single_leaf_matches_update_cost(self):
        batched = build_tree(64)
        per_leaf = build_tree(64)
        assert batched.update_many({"item-0003": 5}) == per_leaf.update("item-0003", 5)
        assert batched.root == per_leaf.root

    def test_update_many_empty_batch_is_free(self):
        tree = build_tree(16)
        before = tree.root
        assert tree.update_many({}) == 0
        assert tree.root == before

    def test_update_unknown_item_raises(self):
        with pytest.raises(StorageError):
            build_tree(4).update("missing", 1)

    def test_proofs_valid_after_updates(self):
        tree = build_tree(32)
        tree.update("item-0007", "new-value")
        proof = tree.verification_object("item-0007")
        assert verify_inclusion("item-0007", "new-value", proof, tree.root)
        assert not verify_inclusion("item-0007", 7, proof, tree.root)


class TestBatchedUpdates:
    """The batched dirty-path sweep must match a full rebuild exactly."""

    def test_random_batches_match_fresh_build(self):
        import random

        rng = random.Random(2020)
        tree = build_tree(200)
        items = tree.snapshot()
        for round_number in range(10):
            batch = {
                item_id: rng.randint(0, 10**6)
                for item_id in rng.sample(sorted(items), rng.randint(1, 60))
            }
            tree.update_many(batch)
            items.update(batch)
            assert tree.root == MerkleTree(items).root

    def test_proofs_verify_after_batched_update(self):
        tree = build_tree(33)  # odd size -> padded leaf level
        batch = {f"item-{i:04d}": 1000 + i for i in range(0, 33, 3)}
        tree.update_many(batch)
        for item_id in tree.item_ids():
            proof = tree.verification_object(item_id)
            assert verify_inclusion(item_id, tree.value_of(item_id), proof, tree.root)

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 7, 9, 31, 100])
    def test_padded_and_odd_sized_trees(self, size):
        tree = build_tree(size)
        batch = {f"item-{i:04d}": -i for i in range(size)}
        tree.update_many(batch)
        assert tree.root == MerkleTree(batch).root

    def test_partial_batch_raises_without_mutating(self):
        tree = build_tree(8)
        before = tree.root
        with pytest.raises(StorageError):
            tree.update_many({"item-0001": 1, "missing": 2})
        assert tree.root == before

    def test_10k_tree_500_leaf_batch_beats_per_leaf_cost(self):
        # The acceptance criterion of the batched-MHT work: strictly fewer
        # node hashes than 500 independent root paths, same root as rebuild.
        tree = build_tree(10_000)
        batch = {f"item-{(i * 17) % 10_000:04d}": i for i in range(500)}
        work = tree.update_many(batch)
        assert work < len(batch) * (tree.depth + 1)
        items = {f"item-{i:04d}": i for i in range(10_000)}
        items.update(batch)
        assert tree.root == MerkleTree(items).root

    def test_clone_is_independent(self):
        tree = build_tree(16)
        dup = tree.clone()
        assert dup.root == tree.root
        dup.update_many({"item-0004": 99})
        assert dup.root != tree.root
        assert tree.value_of("item-0004") == 4
        assert dup.value_of("item-0004") == 99


class TestARefusedBatchIsRefusedWhole:
    """A value that cannot be encoded used to raise half-way through the
    leaves: ``root`` still read the old root over a leaf level that no longer
    hashed to it, and the next sweep through a neighbouring path folded the
    phantom label in."""

    def _observed(self, tree):
        return (
            tree.root,
            tree.snapshot(),
            [tree.verification_object(item_id) for item_id in tree.item_ids()],
        )

    def test_update_many_with_an_unencodable_value_leaves_the_tree_alone(self):
        tree = build_tree(8)
        before = self._observed(tree)
        with pytest.raises(TypeError):
            tree.update_many({"item-0001": 100, "item-0002": {1, 2}})
        assert self._observed(tree) == before
        assert tree.value_of("item-0001") == 1
        # The next sweep through a neighbouring path sees no phantom label.
        tree.update_many({"item-0000": "next"})
        items = {f"item-{i:04d}": i for i in range(8)}
        items["item-0000"] = "next"
        assert tree.root == MerkleTree(items).root

    def test_update_many_with_an_unknown_id_leaves_the_tree_alone(self):
        tree = build_tree(8)
        before = self._observed(tree)
        with pytest.raises(StorageError):
            tree.update_many({"item-0001": 100, "missing": 5})
        assert self._observed(tree) == before

    def test_a_refused_speculation_leaves_the_tree_alone(self):
        tree = build_tree(8)
        before = self._observed(tree)
        with pytest.raises(TypeError):
            tree.speculative_root({"item-0001": 100, "item-0002": {1, 2}})
        with pytest.raises(StorageError):
            tree.speculative_root({"item-0001": 100, "missing": 5})
        assert self._observed(tree) == before
        assert tree.speculative_root({}) == (tree.root, 0)

    def test_a_speculation_interrupted_mid_sweep_puts_back_what_it_replaced(self, monkeypatch):
        """The journal is restored in a ``finally``, whatever stops the sweep."""
        from repro.crypto import merkle

        tree = build_tree(16)
        before = self._observed(tree)
        real, calls = merkle.node_hash, []

        def failing(left, right):
            calls.append(1)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return real(left, right)

        monkeypatch.setattr(merkle, "node_hash", failing)
        with pytest.raises(KeyboardInterrupt):
            tree.speculative_root({"item-0003": "a", "item-0012": "b"})
        monkeypatch.undo()
        assert self._observed(tree) == before
        assert tree.speculative_root({"item-0003": 3}) == (tree.root, tree.depth + 1)


class TestSeededRandomSequences:
    """Seeded-random operation sequences: incremental paths == full rebuild.

    Complements the hypothesis properties below with long *mixed* sequences
    (single updates, batched updates, clones, rebuilds) under fixed seeds so
    runs stay deterministic and failures replay exactly.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2020, 424242])
    def test_mixed_operation_sequence_matches_rebuild(self, seed):
        import random

        rng = random.Random(seed)
        size = rng.randint(1, 120)
        items = {f"item-{i:04d}": rng.randint(-100, 100) for i in range(size)}
        tree = MerkleTree(items)
        for _ in range(30):
            op = rng.choice(["update", "update_many", "rebuild", "clone"])
            if op == "update":
                item_id = rng.choice(sorted(items))
                value = rng.randint(-(10**6), 10**6)
                items[item_id] = value
                tree.update(item_id, value)
            elif op == "update_many":
                chosen = rng.sample(sorted(items), rng.randint(1, min(20, size)))
                batch = {item_id: rng.randint(-(10**6), 10**6) for item_id in chosen}
                items.update(batch)
                tree.update_many(batch)
            elif op == "rebuild":
                tree = MerkleTree(items)
            else:
                tree = tree.clone()
            assert tree.root == MerkleTree(items).root

    @pytest.mark.parametrize("seed", [7, 77])
    def test_update_many_work_never_exceeds_per_leaf_updates(self, seed):
        import random

        rng = random.Random(seed)
        tree = build_tree(256)
        for _ in range(10):
            chosen = rng.sample(tree.item_ids(), rng.randint(1, 64))
            batch = {item_id: rng.random() for item_id in chosen}
            per_leaf_cost = len(batch) * (tree.depth + 1)
            assert tree.update_many(batch) <= per_leaf_cost

    @pytest.mark.parametrize("seed", [3, 33])
    def test_proofs_survive_random_batches(self, seed):
        import random

        rng = random.Random(seed)
        tree = build_tree(100)
        for _ in range(5):
            chosen = rng.sample(tree.item_ids(), rng.randint(1, 40))
            tree.update_many({item_id: rng.randint(0, 10**9) for item_id in chosen})
        for item_id in rng.sample(tree.item_ids(), 20):
            proof = tree.verification_object(item_id)
            assert verify_inclusion(item_id, tree.value_of(item_id), proof, tree.root)


_item_maps = st.dictionaries(
    st.text(min_size=1, max_size=12),
    st.one_of(st.integers(), st.text(max_size=10), st.none()),
    min_size=1,
    max_size=40,
)


class TestMerkleProperties:
    @settings(max_examples=30, deadline=None)
    @given(_item_maps)
    def test_every_proof_verifies(self, items):
        tree = MerkleTree(items)
        for item_id, value in items.items():
            proof = tree.verification_object(item_id)
            assert verify_inclusion(item_id, value, proof, tree.root)

    @settings(max_examples=30, deadline=None)
    @given(_item_maps, st.data())
    def test_tampered_value_never_verifies(self, items, data):
        tree = MerkleTree(items)
        item_id = data.draw(st.sampled_from(sorted(items)))
        proof = tree.verification_object(item_id)
        wrong_value = data.draw(st.integers(min_value=10**6, max_value=10**7))
        if items[item_id] != wrong_value:
            assert not verify_inclusion(item_id, wrong_value, proof, tree.root)

    @settings(max_examples=20, deadline=None)
    @given(_item_maps, st.data())
    def test_incremental_update_equals_rebuild(self, items, data):
        tree = MerkleTree(items)
        item_id = data.draw(st.sampled_from(sorted(items)))
        new_value = data.draw(st.integers())
        tree.update(item_id, new_value)
        updated_items = dict(items)
        updated_items[item_id] = new_value
        assert tree.root == MerkleTree(updated_items).root

    @settings(max_examples=20, deadline=None)
    @given(_item_maps, st.data())
    def test_batched_update_equals_rebuild(self, items, data):
        tree = MerkleTree(items)
        subset = data.draw(st.sets(st.sampled_from(sorted(items)), min_size=1))
        batch = {item_id: data.draw(st.integers()) for item_id in subset}
        tree.update_many(batch)
        updated_items = dict(items)
        updated_items.update(batch)
        assert tree.root == MerkleTree(updated_items).root

    @settings(max_examples=20, deadline=None)
    @given(_item_maps)
    def test_depth_is_ceil_log2(self, items):
        tree = MerkleTree(items)
        expected = max(0, math.ceil(math.log2(len(items)))) if len(items) > 1 else 0
        assert tree.depth == expected
