"""Transactional-YCSB-like workload generator (Section 6).

The generator produces :class:`TransactionSpec` objects -- ordered lists of
read and write operations -- with the shape of the paper's evaluation
workload: a configurable number of items per transaction (5 in the paper),
drawn uniformly from the union of all partitions so that transactions are
distributed, each item read and then written.

Because the paper batches *non-conflicting* transactions into blocks, the
generator can be asked to keep consecutive windows of transactions disjoint
in the items they touch (``conflict_free_window``); this is what the
benchmark harness uses so that a full batch always commits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.common.errors import ConfigurationError
from repro.txn.operations import ReadOp, WriteOp
from repro.workload.distributions import ZipfianKeys


@dataclass(frozen=True, slots=True)
class TransactionSpec:
    """One generated transaction: an ordered list of operations."""

    txn_index: int
    operations: tuple

    def item_ids(self) -> List[str]:
        return sorted({op.item_id for op in self.operations})


def _read_then_write(index: int, items: Sequence[str], last_value: int) -> TransactionSpec:
    """Transaction ``index``: each item read, then written the next value after ``last_value``."""
    operations = []
    for value, item_id in enumerate(items, start=last_value + 1):
        operations.append(ReadOp(item_id))
        operations.append(WriteOp(item_id, value))
    return TransactionSpec(txn_index=index, operations=tuple(operations))


@dataclass
class YcsbWorkload:
    """Generator of YCSB-like multi-record read/write transactions.

    Parameters
    ----------
    item_ids:
        The key universe (all items across all partitions).
    ops_per_txn:
        Distinct items per transaction, each read and then written (the
        paper's "read-write operations"): the paper uses 5, so a transaction
        has 5 reads and 5 writes.  Items are drawn uniformly from
        ``item_ids``.
    conflict_free_window:
        If > 0, consecutive windows of this many transactions touch disjoint
        items, so batches of that size never conflict.
    seed:
        RNG seed for deterministic workloads.
    """

    item_ids: Sequence[str]
    ops_per_txn: int = 5
    conflict_free_window: int = 0
    seed: int = 2020
    _value_counter: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.ops_per_txn < 1:
            raise ConfigurationError("ops_per_txn must be >= 1")
        if not self.item_ids:
            raise ConfigurationError("workload needs a non-empty item universe")
        self._rng = random.Random(self.seed)
        window_items = self.conflict_free_window * self.ops_per_txn
        if window_items > len(self.item_ids):
            raise ConfigurationError(
                "conflict_free_window * ops_per_txn exceeds the item universe; "
                "reduce the window or add items"
            )

    # -- generation -------------------------------------------------------------

    def generate(self, num_transactions: int) -> List[TransactionSpec]:
        """Generate ``num_transactions`` transaction specs."""
        specs: List[TransactionSpec] = []
        used_in_window: set = set()
        fallback = random.Random(self.seed)
        for index in range(num_transactions):
            if self.conflict_free_window and index % self.conflict_free_window == 0:
                used_in_window = set()
            items = self._pick_items(used_in_window, fallback)
            if self.conflict_free_window:
                used_in_window.update(items)
            specs.append(_read_then_write(index, items, self._value_counter))
            self._value_counter += len(items)
        return specs

    def _pick_items(self, excluded: set, fallback: random.Random) -> List[str]:
        """Rejection-sample ``ops_per_txn`` distinct items outside ``excluded``.

        Once a window holds most of the universe, the draws mostly hit used
        items; past the draw budget the rest are drawn by ``fallback`` from
        the items still free, so every window ``__post_init__`` accepts fills.
        """
        items: List[str] = []
        seen = set(excluded)
        attempts = 0
        max_attempts = 50 * self.ops_per_txn + 100
        while len(items) < self.ops_per_txn:
            candidate = self._rng.choice(self.item_ids)
            attempts += 1
            if candidate in seen:
                if attempts > max_attempts:
                    free = [item for item in dict.fromkeys(self.item_ids) if item not in seen]
                    missing = self.ops_per_txn - len(items)
                    if len(free) < missing:
                        raise ConfigurationError(
                            "could not find enough non-conflicting items; "
                            "the item universe is too small for the requested window"
                        )
                    return items + fallback.sample(free, missing)
                continue
            seen.add(candidate)
            items.append(candidate)
        return items


@dataclass
class PartitionedWorkload:
    """Locality-partitioned workload for the scaled deployment (Section 4.6).

    The item universe is split into *locality partitions* (each covering the
    shards of a few servers); every generated transaction has a home
    partition and, with probability ``locality``, touches only items of that
    partition -- so its dynamic group stays small and distinct partitions
    commit through distinct group coordinators.  The remaining
    ``1 - locality`` of transactions span the home partition and its
    neighbour, producing the overlapping groups whose blocks the ordering
    service must keep dependency-ordered.

    Parameters
    ----------
    partitions:
        Item ids per locality partition (e.g. one entry per pair of servers).
    ops_per_txn:
        Items touched per transaction; each is read then written.
    locality:
        Fraction of transactions confined to their home partition (1.0 means
        perfectly partitioned traffic, the paper's best case for scaling).
    conflict_free_window:
        If > 0, a partition hands out its items in windows of this many
        transactions homed on it, and within a window no item twice -- not
        even to a cross-partition transaction homed on the partition before
        it.  So per-group batches of that size never conflict.  0 (the
        default) means no window: as in :class:`YcsbWorkload`, only the items
        of one transaction are distinct, and a partition is never used up.
    seed:
        RNG seed for deterministic workloads.
    home_skew_theta:
        Zipfian skew over *home partitions*: 0.0 (the default) keeps the
        historical round-robin assignment bit-for-bit; > 0 draws each
        transaction's home from a Zipfian over the partition indices, so a
        few partitions (and their group coordinators / ordering lanes)
        become hotspots -- what the scale-out sweep uses to stress the
        ordering layer unevenly.
    """

    partitions: Sequence[Sequence[str]]
    ops_per_txn: int = 2
    locality: float = 1.0
    conflict_free_window: int = 0
    seed: int = 2020
    home_skew_theta: float = 0.0
    _value_counter: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.partitions or any(not p for p in self.partitions):
            raise ConfigurationError("every locality partition needs items")
        if not 0.0 <= self.locality <= 1.0:
            raise ConfigurationError("locality must be within [0, 1]")
        if self.ops_per_txn < 1:
            raise ConfigurationError("ops_per_txn must be >= 1")
        if self.home_skew_theta < 0.0:
            raise ConfigurationError("home_skew_theta must be >= 0")
        #: Per partition, each item's position in it: the one walk of a partition.
        self._positions: List[Dict[str, int]] = []
        for partition in self.partitions:
            positions = {item: position for position, item in enumerate(partition)}
            if len(positions) != len(partition):
                raise ConfigurationError("a locality partition names an item twice")
            self._positions.append(positions)
        self._rng = random.Random(self.seed)
        self._home_distribution = None
        if self.home_skew_theta > 0.0 and len(self.partitions) > 1:
            self._home_distribution = ZipfianKeys(
                list(range(len(self.partitions))),
                seed=self.seed + 1,
                theta=self.home_skew_theta,
            )
        #: Per-partition items already used in the current conflict-free window
        #: (always empty when there is no window).
        self._window_used: Dict[int, set] = {i: set() for i in range(len(self.partitions))}
        self._window_progress: Dict[int, int] = {i: 0 for i in range(len(self.partitions))}

    def generate(self, num_transactions: int) -> List[TransactionSpec]:
        """Generate ``num_transactions`` specs.

        Homes are assigned round-robin, or Zipfian-skewed when
        ``home_skew_theta`` > 0.
        """
        specs: List[TransactionSpec] = []
        for index in range(num_transactions):
            if self._home_distribution is not None:
                home = self._home_distribution.sample()
            else:
                home = index % len(self.partitions)
            pools = [home]
            if len(self.partitions) > 1 and self._rng.random() >= self.locality:
                pools.append((home + 1) % len(self.partitions))
            items = self._pick_items(home, pools)
            specs.append(_read_then_write(index, items, self._value_counter))
            self._value_counter += len(items)
        return specs

    def _pick_items(self, home: int, pools: List[int]) -> List[str]:
        if self.conflict_free_window:
            if self._window_progress[home] % self.conflict_free_window == 0:
                self._window_used[home] = set()
            self._window_progress[home] += 1
        items: List[str] = []
        # Spread the picks over every pool so cross-partition transactions
        # really touch both partitions (and hence widen their group).
        for position in range(self.ops_per_txn):
            partition_index = pools[position % len(pools)]
            used = self._window_used[partition_index]
            choice = self._draw(partition_index, used, items)
            items.append(choice)
            if self.conflict_free_window:
                used.add(choice)
        return items

    def _draw(self, partition_index: int, used: set, taken: List[str]) -> str:
        """Draw uniformly from the partition's items not in ``used`` or ``taken``.

        This is ``rng.choice`` over the partition filtered in order, without
        the filtered list: the draw is an index among the free items, stepped
        past the excluded positions below it, so the RNG is consumed exactly
        as ``choice`` over the filtered list would.
        """
        positions = self._positions[partition_index]
        skipped = sorted(
            {positions[item] for item in used}
            | {positions[item] for item in taken if item in positions}
        )
        free = len(positions) - len(skipped)
        if not free:
            raise ConfigurationError(
                "locality partition exhausted; enlarge the partitions or "
                "shrink conflict_free_window"
            )
        index = self._rng.choice(range(free))
        for position in skipped:
            if position > index:
                break
            index += 1
        return self.partitions[partition_index][index]
