"""A locality pick draws one index: the same specs as filtering the partition.

``PartitionedWorkload`` picks an item by drawing an index among a partition's
free items and stepping it past the excluded positions, instead of copying the
partition and filtering it.  ``reference_pick`` below is the filtering pick it
replaced, and ``reference_generate`` drives it with the generator's own
bookkeeping (homes, windows, cross-partition pools).  Both must give the same
specs from the same seed, and refuse the same input with the same error.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.txn.operations import ReadOp, WriteOp
from repro.workload.distributions import ZipfianKeys
from repro.workload.ycsb import PartitionedWorkload, TransactionSpec

UNIVERSE = [f"item-{i:02d}" for i in range(14)]


def reference_pick(rng, pool, used, taken):
    """The filtering pick: every free item of ``pool``, in order, then ``choice``."""
    candidates = [item for item in pool if item not in used and item not in taken]
    if not candidates:
        raise ConfigurationError(
            "locality partition exhausted; enlarge the partitions or "
            "shrink conflict_free_window"
        )
    return rng.choice(candidates)


def reference_generate(partitions, ops_per_txn, locality, window, seed, theta, count):
    """``PartitionedWorkload(...).generate(count)``, picking with ``reference_pick``."""
    rng = random.Random(seed)
    homes = None
    if theta > 0.0 and len(partitions) > 1:
        homes = ZipfianKeys(list(range(len(partitions))), seed=seed + 1, theta=theta)
    used = {index: set() for index in range(len(partitions))}
    progress = {index: 0 for index in range(len(partitions))}
    value = 0
    specs = []
    for index in range(count):
        home = homes.sample() if homes is not None else index % len(partitions)
        pools = [home]
        if len(partitions) > 1 and rng.random() >= locality:
            pools.append((home + 1) % len(partitions))
        if window:
            if progress[home] % window == 0:
                used[home] = set()
            progress[home] += 1
        items = []
        for position in range(ops_per_txn):
            pool = pools[position % len(pools)]
            item = reference_pick(rng, partitions[pool], used[pool], items)
            items.append(item)
            if window:
                used[pool].add(item)
        operations = []
        for item in items:
            value += 1
            operations += [ReadOp(item), WriteOp(item, value)]
        specs.append(TransactionSpec(txn_index=index, operations=tuple(operations)))
    return specs


def outcome(make):
    """The specs ``make`` returns, or the message of the ``ConfigurationError`` it raises."""
    try:
        return make()
    except ConfigurationError as error:
        return f"refused: {error}"


@st.composite
def disjoint_partitions(draw):
    items = draw(st.permutations(UNIVERSE))
    cuts = sorted(draw(st.sets(st.integers(1, len(items) - 1), max_size=4)))
    bounds = [0, *cuts, len(items)]
    return [items[start:end] for start, end in zip(bounds, bounds[1:])]


overlapping_partitions = st.lists(
    st.lists(st.sampled_from(UNIVERSE), min_size=1, max_size=8, unique=True),
    min_size=1,
    max_size=5,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    partitions=st.one_of(disjoint_partitions(), overlapping_partitions),
    ops_per_txn=st.integers(1, 4),
    locality=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
    window=st.integers(0, 8),
    seed=st.integers(0, 2**16),
    theta=st.sampled_from([0.0, 0.0, 0.5, 0.99]),
    count=st.integers(1, 40),
)
def test_the_drawn_index_picks_what_the_filter_picked(
    partitions, ops_per_txn, locality, window, seed, theta, count
):
    expected = outcome(
        lambda: reference_generate(partitions, ops_per_txn, locality, window, seed, theta, count)
    )
    actual = outcome(
        lambda: PartitionedWorkload(
            partitions=partitions,
            ops_per_txn=ops_per_txn,
            locality=locality,
            conflict_free_window=window,
            seed=seed,
            home_skew_theta=theta,
        ).generate(count)
    )
    assert actual == expected


def test_both_refuse_an_exhausted_partition_alike():
    partitions = [["a", "b", "c"], ["d", "e", "f", "g"]]
    expected = outcome(lambda: reference_generate(partitions, 2, 0.5, 3, 11, 0.0, 12))
    actual = outcome(
        lambda: PartitionedWorkload(
            partitions=partitions, ops_per_txn=2, locality=0.5, conflict_free_window=3, seed=11
        ).generate(12)
    )
    assert expected.startswith("refused: locality partition exhausted")
    assert actual == expected


class CountingPartition(Sequence):
    """A partition that counts how often something walks it."""

    def __init__(self, items):
        self._items = list(items)
        self.walks = 0

    def __len__(self):
        return len(self._items)

    def __getitem__(self, index):
        return self._items[index]

    def __iter__(self):
        self.walks += 1
        return iter(self._items)


def test_a_pick_never_walks_its_partition():
    partitions = [
        CountingPartition(f"p{p}-item-{i}" for i in range(50)) for p in range(8)
    ]
    workload = PartitionedWorkload(
        partitions=partitions, ops_per_txn=2, locality=0.7, conflict_free_window=4, seed=5
    )
    for partition in partitions:
        partition.walks = 0
    specs = workload.generate(500)
    assert len(specs) == 500
    assert [partition.walks for partition in partitions] == [0] * 8


def test_no_window_never_exhausts_a_partition():
    """Without a window only one transaction's items are distinct, as in YcsbWorkload."""
    specs = PartitionedWorkload(partitions=[["a", "b", "c", "d"]], ops_per_txn=2).generate(50)
    assert len(specs) == 50
    assert all(len(spec.item_ids()) == 2 for spec in specs)


def test_a_partition_naming_an_item_twice_is_refused():
    with pytest.raises(ConfigurationError, match="names an item twice"):
        PartitionedWorkload(partitions=[["a", "b"], ["c", "d", "c"]])
