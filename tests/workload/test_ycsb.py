"""Tests for the Transactional-YCSB-like workload generator."""

from __future__ import annotations

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.workload.ycsb import TransactionSpec, YcsbWorkload

ITEMS = [f"item-{i:04d}" for i in range(200)]


class TestYcsbWorkload:
    def test_generates_requested_count(self):
        workload = YcsbWorkload(item_ids=ITEMS, ops_per_txn=5, seed=1)
        specs = workload.generate(50)
        assert len(specs) == 50
        assert all(isinstance(spec, TransactionSpec) for spec in specs)

    def test_read_modify_write_shape_matches_paper(self):
        """5 distinct items per transaction, each read then written (multi-record)."""
        workload = YcsbWorkload(item_ids=ITEMS, ops_per_txn=5, seed=1)
        spec = workload.generate(1)[0]
        assert len(spec.item_ids()) == 5
        assert len(spec.operations) == 10
        reads = [op for op in spec.operations if op.is_read]
        writes = [op for op in spec.operations if not op.is_read]
        assert len(reads) == len(writes) == 5

    def test_items_within_txn_are_distinct(self):
        workload = YcsbWorkload(item_ids=ITEMS, ops_per_txn=5, seed=2)
        for spec in workload.generate(30):
            assert len(spec.item_ids()) == 5

    def test_conflict_free_window_keeps_batches_disjoint(self):
        workload = YcsbWorkload(item_ids=ITEMS, ops_per_txn=3, conflict_free_window=10, seed=3)
        specs = workload.generate(30)
        for start in range(0, 30, 10):
            window = specs[start : start + 10]
            seen = set()
            for spec in window:
                items = set(spec.item_ids())
                assert not items & seen
                seen |= items

    def test_a_window_that_covers_the_universe_fills(self):
        """200 transactions of 5 items use all 1 000: the last picks outrun the
        rejection sampler's draw budget and are filled from the free items."""
        universe = [f"item-{i:04d}" for i in range(1000)]

        def generate():
            workload = YcsbWorkload(
                item_ids=universe, ops_per_txn=5, conflict_free_window=200, seed=4
            )
            return workload.generate(400)

        specs = generate()
        for start in (0, 200):
            window = [spec.item_ids() for spec in specs[start : start + 200]]
            assert all(len(items) == 5 for items in window)
            assert sorted(item for items in window for item in items) == universe
        assert specs == generate()

    def test_deterministic_per_seed(self):
        a = YcsbWorkload(item_ids=ITEMS, seed=5).generate(10)
        b = YcsbWorkload(item_ids=ITEMS, seed=5).generate(10)
        assert [s.item_ids() for s in a] == [s.item_ids() for s in b]

    def test_different_seeds_draw_different_items(self):
        a = YcsbWorkload(item_ids=ITEMS, seed=5).generate(10)
        b = YcsbWorkload(item_ids=ITEMS, seed=6).generate(10)
        assert [s.item_ids() for s in a] != [s.item_ids() for s in b]

    def test_each_item_is_read_then_written(self):
        """Every operation pair is a read of an item and then a write of it."""
        workload = YcsbWorkload(item_ids=ITEMS, ops_per_txn=4, seed=1)
        for spec in workload.generate(20):
            reads, writes = spec.operations[0::2], spec.operations[1::2]
            assert all(op.is_read for op in reads)
            assert not any(op.is_read for op in writes)
            assert [op.item_id for op in reads] == [op.item_id for op in writes]

    def test_draws_come_from_the_universe(self):
        workload = YcsbWorkload(item_ids=ITEMS, ops_per_txn=5, seed=1)
        drawn = {item for spec in workload.generate(100) for item in spec.item_ids()}
        assert drawn <= set(ITEMS)

    def test_draws_cover_the_universe(self):
        """5 000 uniform draws over 200 items miss almost none of them."""
        workload = YcsbWorkload(item_ids=ITEMS, ops_per_txn=5, seed=5)
        counts = collections.Counter(
            item for spec in workload.generate(1000) for item in spec.item_ids()
        )
        assert len(counts) > 190
        assert max(counts.values()) < 4 * 5000 / len(ITEMS)

    def test_window_too_large_rejected(self):
        with pytest.raises(ConfigurationError):
            YcsbWorkload(item_ids=ITEMS[:10], ops_per_txn=5, conflict_free_window=10)

    def test_empty_universe_rejected(self):
        with pytest.raises(ConfigurationError):
            YcsbWorkload(item_ids=[])

    def test_written_values_are_unique(self):
        workload = YcsbWorkload(item_ids=ITEMS, ops_per_txn=2, seed=1)
        values = [
            op.value for spec in workload.generate(20) for op in spec.operations if not op.is_read
        ]
        assert len(values) == len(set(values))

    def test_a_second_generate_continues_the_written_values(self):
        workload = YcsbWorkload(item_ids=ITEMS, ops_per_txn=2, seed=1)
        written = [
            op.value
            for count in (3, 4)
            for spec in workload.generate(count)
            for op in spec.operations
            if not op.is_read
        ]
        assert written == list(range(1, 15))

    def test_the_value_counter_is_not_a_parameter(self):
        with pytest.raises(TypeError):
            YcsbWorkload(item_ids=ITEMS, _value_counter=10)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=20))
    def test_any_configuration_generates_valid_specs(self, ops, count):
        workload = YcsbWorkload(item_ids=ITEMS, ops_per_txn=ops, seed=7)
        specs = workload.generate(count)
        assert len(specs) == count
        for spec in specs:
            assert len(spec.item_ids()) == ops
