"""Merkle Hash Trees (MHT) and Verification Objects.

Section 2.3 of the paper: an MHT is a binary tree whose leaves are hashes of
data items and whose internal nodes hash the concatenation of their children.
A *Verification Object* (VO) for a data item is the list of sibling hashes on
the path from that item's leaf to the root; given the item's value and its VO,
anyone can recompute the root and compare it against a published root.

In Fides each database server builds an MHT over its entire shard; the root
goes into the transaction block during TFCommit (Section 4.3.1) and the
auditor later uses VOs supplied by the server to authenticate the datastore
(Section 4.2.2, Lemma 2).

The implementation keeps the whole tree in memory as a list of levels so it
supports full rebuilds, *incremental* single-leaf updates (O(log n)
re-hashes), and *batched* multi-leaf updates (:meth:`MerkleTree.update_many`)
that re-hash every dirty ancestor exactly once -- O(k + k*log(n/k)) node
hashes for k touched leaves instead of O(k*log n).  The batched path is what
makes the paper's Figures 14-15 shapes visible (MHT update cost grows with
tree depth and with the number of touched leaves) at realistic block sizes;
see DESIGN.md for the accounting model.

A full build costs what differs, not the padded width.  At genesis every item
holds the same value object, so consecutive leaves that hold *the same object*
share one value digest; identity, not ``==``, decides, because ``0``,
``False``, ``0.0`` and ``-0.0`` compare equal but encode, and so hash, apart.
The leaf level is padded up to a power of two with one constant label, and
every node above padding alone is one label per level, hashed once: a
10 000-item shard hashes about 10 000 internal nodes, not 16 383.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.common.errors import StorageError
from repro.common.wire import BOOL, BYTES, INT, STR, list_of, pair_of, wire_form
from repro.crypto.hashing import hash_concat, hash_object, sha256

#: Domain-separation prefixes so leaves can never be confused with internal nodes.
_LEAF_PREFIX = b"\x00leaf"
_NODE_PREFIX = b"\x01node"

#: Hash used to pad the leaf level up to a power of two.
_EMPTY_LEAF = sha256(b"fides-empty-leaf")

#: ``hash_concat``'s framing of the parts whose lengths never vary -- the two
#: prefixes and a 32-byte digest -- spelled once, so that a label is one
#: SHA-256 call over one joined buffer instead of six hasher updates.
_LEN32 = (32).to_bytes(8, "big")
_LEAF_HEAD = len(_LEAF_PREFIX).to_bytes(8, "big") + _LEAF_PREFIX
_NODE_HEAD = len(_NODE_PREFIX).to_bytes(8, "big") + _NODE_PREFIX + _LEN32


def leaf_hash(item_id: str, value) -> bytes:
    """Hash one data item (id + value) into a leaf label.

    Equals ``hash_concat(_LEAF_PREFIX, item_id.encode("utf-8"), hash_object(value))``.
    """
    item = item_id.encode("utf-8")
    return sha256(
        _LEAF_HEAD + len(item).to_bytes(8, "big") + item + _LEN32 + hash_object(value)
    )


def node_hash(left: bytes, right: bytes) -> bytes:
    """Hash two child labels into a parent label.

    Equals ``hash_concat(_NODE_PREFIX, left, right)``, which it falls back to
    for children that are not 32-byte digests.
    """
    if len(left) == 32 == len(right):
        return sha256(_NODE_HEAD + left + _LEN32 + right)
    return hash_concat(_NODE_PREFIX, left, right)


@wire_form(
    ("item_id", STR),
    ("leaf_index", INT),
    ("siblings", list_of(pair_of(BYTES, BOOL))),
)
@dataclass(frozen=True, slots=True)
class VerificationObject:
    """The sibling hashes on the path from one leaf to the root.

    ``siblings`` is ordered leaf-to-root; each entry is ``(hash, is_left)``
    where ``is_left`` says whether the sibling sits to the *left* of the
    running hash when recomputing the parent.
    """

    item_id: str
    leaf_index: int
    siblings: Tuple[Tuple[bytes, bool], ...]

    def __len__(self) -> int:
        return len(self.siblings)


def _next_power_of_two(n: int) -> int:
    power = 1
    while power < n:
        power *= 2
    return power


class MerkleTree:
    """A Merkle Hash Tree over an ordered set of ``item_id -> value`` leaves.

    The leaf order is fixed at construction (sorted item ids) so
    that every correct server with the same shard contents computes the same
    root.  Values can be updated in place with :meth:`update`, which re-hashes
    only the path from the touched leaf to the root and returns the number of
    node hashes recomputed -- the quantity reported as "MHT update time" in
    the paper's Figure 14.
    """

    def __init__(self, items: Mapping[str, object]):
        self._ids: List[str] = sorted(items)
        self._index: Dict[str, int] = {item_id: i for i, item_id in enumerate(self._ids)}
        self._values: Dict[str, object] = dict(items)
        self._levels: List[List[bytes]] = []
        self._build()

    # -- construction -------------------------------------------------------

    def _build(self) -> None:
        """(Re)build every level of the tree from the current values.

        A leaf holding the same object as the previous leaf reuses its value
        digest (by identity, see the module docstring), and a level hashes
        the pairs with a real leaf below them, then the padding label once.
        """
        values = self._values
        leaves: List[bytes] = []
        append = leaves.append
        previous = digest = None
        for item_id in self._ids:
            value = values[item_id]
            if digest is None or value is not previous:
                previous, digest = value, hash_object(value)
            item = item_id.encode("utf-8")
            append(sha256(_LEAF_HEAD + len(item).to_bytes(8, "big") + item + _LEN32 + digest))
        real = len(leaves)
        padding = _EMPTY_LEAF
        leaves.extend([padding] * (max(1, _next_power_of_two(real)) - real))
        levels = [leaves]
        current = leaves
        while len(current) > 1:
            real = (real + 1) // 2
            parents = [node_hash(current[i], current[i + 1]) for i in range(0, 2 * real, 2)]
            if len(current) // 2 > real:
                padding = node_hash(padding, padding)
                parents.extend([padding] * (len(current) // 2 - real))
            levels.append(parents)
            current = parents
        self._levels = levels

    # -- queries ------------------------------------------------------------

    @property
    def root(self) -> bytes:
        """The root label of the tree."""
        return self._levels[-1][0]

    @property
    def size(self) -> int:
        """Number of real (non-padding) leaves."""
        return len(self._ids)

    @property
    def depth(self) -> int:
        """Number of edges from a leaf to the root."""
        return len(self._levels) - 1

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._index

    def value_of(self, item_id: str):
        """Return the value currently stored at ``item_id``'s leaf."""
        try:
            return self._values[item_id]
        except KeyError:
            raise StorageError(f"item {item_id!r} not in Merkle tree") from None

    def item_ids(self) -> List[str]:
        return list(self._ids)

    # -- updates ------------------------------------------------------------

    def update(self, item_id: str, value) -> int:
        """Set ``item_id``'s value and re-hash its path to the root.

        Returns the number of node hashes recomputed (``depth + 1``), which
        the benchmark harness accumulates as MHT update work.
        """
        if item_id not in self._index:
            raise StorageError(f"item {item_id!r} not in Merkle tree")
        self._values[item_id] = value
        index = self._index[item_id]
        self._levels[0][index] = leaf_hash(item_id, value)
        hashes_recomputed = 1
        for level in range(1, len(self._levels)):
            index //= 2
            left = self._levels[level - 1][2 * index]
            right = self._levels[level - 1][2 * index + 1]
            self._levels[level][index] = node_hash(left, right)
            hashes_recomputed += 1
        return hashes_recomputed

    def update_many(self, updates: Mapping[str, object]) -> int:
        """Apply several leaf updates in one batched dirty-path sweep.

        All touched leaves are re-hashed first, then the tree is swept level
        by level so that every dirty ancestor is hashed exactly once even
        when several updated leaves share it -- O(k + k*log(n/k)) node hashes
        for a batch of k leaves instead of the O(k*log n) a per-leaf loop
        pays.  Returns the number of node hashes actually recomputed, which
        is the quantity the benchmark harness accumulates as MHT update work.

        A batch that is refused -- an unknown id, a value that cannot be
        encoded -- is refused whole: every new leaf label is hashed before
        anything is written.
        """
        return self._sweep(updates, None)

    def speculative_root(self, updates: Mapping[str, object]) -> Tuple[bytes, int]:
        """The root :meth:`update_many` would leave, and the hashes it would cost.

        The same sweep, journalling every value and label it replaces; the
        root is read and the journal put back, so each dirty path is hashed
        once and the tree is left exactly as it was, whatever happens on the
        way.
        """
        journal: List[tuple] = []
        try:
            work = self._sweep(updates, journal)
            return self.root, work
        finally:
            for holder, key, replaced in reversed(journal):
                holder[key] = replaced

    def _sweep(self, updates: Mapping[str, object], journal: Optional[List[tuple]]) -> int:
        """The batched sweep; ``journal`` collects ``(holder, key, replaced)``
        for each value and label about to be overwritten."""
        if not updates:
            return 0
        unknown = [item_id for item_id in updates if item_id not in self._index]
        if unknown:
            raise StorageError(f"items not in Merkle tree: {unknown}")
        labels = [leaf_hash(item_id, value) for item_id, value in updates.items()]
        values, leaves = self._values, self._levels[0]
        dirty: set = set()
        for (item_id, value), label in zip(updates.items(), labels):
            index = self._index[item_id]
            if journal is not None:
                journal.append((values, item_id, values[item_id]))
                journal.append((leaves, index, leaves[index]))
            values[item_id] = value
            leaves[index] = label
            dirty.add(index)
        hashes_recomputed = len(dirty)
        for level in range(1, len(self._levels)):
            parents = {index // 2 for index in dirty}
            below = self._levels[level - 1]
            row = self._levels[level]
            if journal is not None:
                journal.extend([(row, parent, row[parent]) for parent in parents])
            for parent in parents:
                row[parent] = node_hash(below[2 * parent], below[2 * parent + 1])
            hashes_recomputed += len(parents)
            dirty = parents
        return hashes_recomputed

    def clone(self) -> "MerkleTree":
        """Return an independent copy sharing no mutable state.

        Copying the levels moves O(n) *bytes* but recomputes zero hashes,
        which is what makes clone-then-``update_many`` the cheap way to
        derive a historical tree that differs from this one in a few leaves
        (the audit-side VO regeneration path in the datastore).
        """
        dup = copy.copy(self)
        dup._ids = list(self._ids)
        dup._index = dict(self._index)
        dup._values = dict(self._values)
        dup._levels = [list(level) for level in self._levels]
        return dup

    # -- proofs -------------------------------------------------------------

    def verification_object(self, item_id: str) -> VerificationObject:
        """Return the VO (sibling path) authenticating ``item_id``."""
        if item_id not in self._index:
            raise StorageError(f"item {item_id!r} not in Merkle tree")
        index = self._index[item_id]
        siblings: List[Tuple[bytes, bool]] = []
        for level in range(len(self._levels) - 1):
            sibling_index = index ^ 1
            sibling_is_left = sibling_index < index
            siblings.append((self._levels[level][sibling_index], sibling_is_left))
            index //= 2
        return VerificationObject(
            item_id=item_id,
            leaf_index=self._index[item_id],
            siblings=tuple(siblings),
        )

    def snapshot(self) -> Dict[str, object]:
        """Return a copy of the current leaf values (id -> value)."""
        return dict(self._values)


def verify_inclusion(item_id: str, value, proof: VerificationObject, expected_root: bytes) -> bool:
    """Recompute the root from ``(item_id, value)`` and ``proof``; compare to ``expected_root``.

    This is exactly the verifier computation described in Section 2.3: hash
    the value, fold in each sibling, and compare the resulting root against
    the published one.
    """
    if proof.item_id != item_id:
        return False
    running = leaf_hash(item_id, value)
    for sibling, sibling_is_left in proof.siblings:
        if sibling_is_left:
            running = node_hash(sibling, running)
        else:
            running = node_hash(running, sibling)
    return running == expected_root

