"""A full Merkle build against the one it replaced.

``MerkleTree._build`` reuses a value digest across consecutive leaves that
hold the same object and hashes each all-padding level once.  Neither may
change a label, so every level -- not only the root -- is held to the plain
build it replaced, kept here verbatim as the oracle.
"""

from __future__ import annotations

import pytest

from repro.crypto import merkle
from repro.crypto.merkle import (
    _EMPTY_LEAF,
    MerkleTree,
    _next_power_of_two,
    leaf_hash,
    node_hash,
)


def reference_levels(tree: MerkleTree):
    """The plain build: every leaf hashed on its own, every level hashed whole."""
    width = max(1, _next_power_of_two(len(tree._ids)))
    leaves = [leaf_hash(item_id, tree._values[item_id]) for item_id in tree._ids]
    leaves.extend([_EMPTY_LEAF] * (width - len(leaves)))
    levels = [leaves]
    current = leaves
    while len(current) > 1:
        parents = [
            node_hash(current[i], current[i + 1]) for i in range(0, len(current), 2)
        ]
        levels.append(parents)
        current = parents
    return levels


#: Values that compare equal to one another yet encode apart.
ZEROS = (0, False, 0.0, -0.0, "0")


def _fresh(value):
    """An object equal to ``value`` that is not ``value``, where one can exist."""
    return value * 1.0 if type(value) is float else value


def _ids(size: int):
    return [f"item-{index:08d}" for index in range(size)]


def _shared(size: int):
    """Runs of one object, then the next zero: consecutive leaves share objects."""
    return {item_id: ZEROS[(index // 3) % len(ZEROS)] for index, item_id in enumerate(_ids(size))}


def _alternating(size: int):
    """Every leaf holds a different zero than the leaf before it."""
    return {item_id: ZEROS[index % len(ZEROS)] for index, item_id in enumerate(_ids(size))}


def _distinct(size: int):
    """A fresh object per leaf wherever the type allows one."""
    return {
        item_id: _fresh(ZEROS[(index // 2) % len(ZEROS)])
        for index, item_id in enumerate(_ids(size))
    }


SIZES = [*range(0, 71), 1_023, 1_024, 1_025, 10_000]
CONTENTS = {"shared": _shared, "alternating": _alternating, "distinct": _distinct}


@pytest.mark.parametrize("contents", sorted(CONTENTS))
@pytest.mark.parametrize("size", SIZES)
def test_every_level_equals_the_plain_build(size, contents):
    tree = MerkleTree(CONTENTS[contents](size))
    assert tree._levels == reference_levels(tree)


def test_the_distinct_values_are_distinct_objects():
    values = list(_distinct(8).values())
    floats = [value for value in values if type(value) is float]
    assert floats and all(a is not b for a, b in zip(floats, floats[1:]))
    assert [repr(value) for value in floats] == ["0.0", "0.0", "-0.0", "-0.0"]


def test_updates_leave_every_level_of_the_plain_build():
    tree = MerkleTree(_shared(1_025))
    tree.update_many({"item-00000003": False, "item-00001024": -0.0})
    tree.update("item-00000004", 0.0)
    assert tree._levels == reference_levels(tree)


class TestWorkFollowsWhatDiffers:
    @staticmethod
    def _counted(monkeypatch, name):
        calls = []
        real = getattr(merkle, name)

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(merkle, name, counting)
        return calls

    def test_one_value_digest_per_run_of_one_object(self, monkeypatch):
        digests = self._counted(monkeypatch, "hash_object")
        MerkleTree({item_id: 0 for item_id in _ids(10_000)})
        assert len(digests) == 1

    def test_equal_values_that_are_not_the_same_object_are_hashed_apart(self, monkeypatch):
        digests = self._counted(monkeypatch, "hash_object")
        MerkleTree(_alternating(10))
        assert [repr(args[0]) for args in digests] == [repr(value) for value in ZEROS] * 2

    def test_padding_is_hashed_once_per_level(self, monkeypatch):
        nodes = self._counted(monkeypatch, "node_hash")
        tree = MerkleTree({item_id: 0 for item_id in _ids(10_000)})
        # 16 384 leaves, 6 384 of them padding: about 10 000 internal nodes
        # have a real leaf below them, and the padding label is hashed once
        # per level that still holds an all-padding node.
        real_nodes = sum(-(-10_000 // 2**level) for level in range(1, tree.depth + 1))
        padded_levels = sum(
            1
            for level in range(1, tree.depth + 1)
            if 16_384 // 2**level > -(-10_000 // 2**level)
        )
        assert len(nodes) == real_nodes + padded_levels
        assert real_nodes + padded_levels < 10_020 < 16_383
