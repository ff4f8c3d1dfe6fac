"""``YcsbWorkload`` draws its keys itself: the same specs as the key-distribution draw.

``YcsbWorkload`` once drew each key through a ``UniformKeys`` distribution
object built from its seed; it now calls ``random.Random(seed).choice`` over
the item list itself.  ``ReferenceYcsbWorkload`` below is the generator that
delegated, in its one mode in use (uniform keys, each item read and then
written), with ``ReferenceUniformKeys`` as its distribution.  Both must give
the same specs from the same seed -- across two ``generate`` calls on one
instance, whose draws continue one RNG -- and refuse the same input with the
same error.
"""

from __future__ import annotations

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.txn.operations import ReadOp, WriteOp
from repro.workload.ycsb import TransactionSpec, YcsbWorkload


class ReferenceUniformKeys:
    """Every item is equally likely: ``choice`` over a copy of the universe."""

    def __init__(self, item_ids, seed):
        if not item_ids:
            raise ValueError("key distribution needs a non-empty item universe")
        self._item_ids = list(item_ids)
        self._rng = random.Random(seed)

    def sample(self):
        return self._rng.choice(self._item_ids)


class ReferenceYcsbWorkload:
    """The generator that drew each key from a ``ReferenceUniformKeys``."""

    def __init__(self, item_ids, ops_per_txn, conflict_free_window, seed):
        self.item_ids = item_ids
        self.ops_per_txn = ops_per_txn
        self.conflict_free_window = conflict_free_window
        self.seed = seed
        self._value_counter = 0
        if self.ops_per_txn < 1:
            raise ConfigurationError("ops_per_txn must be >= 1")
        if not self.item_ids:
            raise ConfigurationError("workload needs a non-empty item universe")
        self.distribution = ReferenceUniformKeys(self.item_ids, seed=self.seed)
        window_items = self.conflict_free_window * self.ops_per_txn
        if window_items > len(self.item_ids):
            raise ConfigurationError(
                "conflict_free_window * ops_per_txn exceeds the item universe; "
                "reduce the window or add items"
            )

    def generate(self, num_transactions):
        specs = []
        used_in_window = set()
        fallback = random.Random(self.seed)
        for index in range(num_transactions):
            if self.conflict_free_window and index % self.conflict_free_window == 0:
                used_in_window = set()
            items = self._pick_items(used_in_window, fallback)
            if self.conflict_free_window:
                used_in_window.update(items)
            specs.append(TransactionSpec(txn_index=index, operations=tuple(self._ops_for(items))))
        return specs

    def _pick_items(self, excluded, fallback):
        items = []
        seen = set(excluded)
        attempts = 0
        max_attempts = 50 * self.ops_per_txn + 100
        while len(items) < self.ops_per_txn:
            candidate = self.distribution.sample()
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

    def _ops_for(self, items):
        ops = []
        for item_id in items:
            self._value_counter += 1
            ops.append(ReadOp(item_id))
            ops.append(WriteOp(item_id, self._value_counter))
        return ops


def outcome(make):
    """What ``make`` returns, or the message of the ``ConfigurationError`` it raises."""
    try:
        return make()
    except ConfigurationError as error:
        return f"refused: {error}"


def two_calls(cls, item_ids, ops_per_txn, window, seed, counts):
    """Build one generator and call ``generate`` on it once per count."""
    generator = cls(
        item_ids=item_ids, ops_per_txn=ops_per_txn, conflict_free_window=window, seed=seed
    )
    return [generator.generate(count) for count in counts]


@st.composite
def draws(draw):
    """A universe of 1-200 items (duplicates allowed), its window, and two call sizes."""
    ids = draw(st.lists(st.integers(0, 250), min_size=1, max_size=200))
    item_ids = [f"item-{i:03d}" for i in ids]
    ops_per_txn = draw(st.integers(1, 6))
    fits = len(item_ids) // ops_per_txn
    # Mostly windows the universe holds, the widest ones filling it (and so
    # reaching the fallback sampler); sometimes one too wide to accept.
    window = draw(st.one_of(st.integers(0, fits), st.just(fits), st.integers(0, len(item_ids))))
    counts = draw(st.lists(st.integers(0, 2 * max(window, 5)), min_size=2, max_size=2))
    return item_ids, ops_per_txn, window, counts


UNIVERSE = [f"item-{i:03d}" for i in range(200)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=draws(), seed=st.integers(0, 2**32))
# Windows that cover the universe: their last picks come from the fallback.
@example(case=(UNIVERSE, 1, 200, [200, 200]), seed=2020)
@example(case=(UNIVERSE[:120], 3, 40, [80, 45]), seed=0)
# Fewer distinct items than a window needs: refused mid-generation.
@example(case=(UNIVERSE[:10] * 2, 4, 5, [5, 5]), seed=3)
def test_the_own_draw_picks_what_the_distribution_picked(case, seed):
    item_ids, ops_per_txn, window, counts = case
    expected = outcome(
        lambda: two_calls(ReferenceYcsbWorkload, item_ids, ops_per_txn, window, seed, counts)
    )
    actual = outcome(lambda: two_calls(YcsbWorkload, item_ids, ops_per_txn, window, seed, counts))
    assert actual == expected
