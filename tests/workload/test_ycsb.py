"""Tests for the Transactional-YCSB-like workload generator."""

from __future__ import annotations

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

    def test_write_only_mix(self):
        workload = YcsbWorkload(
            item_ids=ITEMS, ops_per_txn=4, read_modify_write=False, write_fraction=1.0, seed=1
        )
        spec = workload.generate(1)[0]
        assert not any(op.is_read for op in spec.operations)

    def test_read_only_mix(self):
        workload = YcsbWorkload(
            item_ids=ITEMS, ops_per_txn=4, read_modify_write=False, write_fraction=0.0, seed=1
        )
        spec = workload.generate(1)[0]
        assert all(op.is_read for op in spec.operations)

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

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=20))
    def test_any_configuration_generates_valid_specs(self, ops, count):
        workload = YcsbWorkload(item_ids=ITEMS, ops_per_txn=ops, seed=7)
        specs = workload.generate(count)
        assert len(specs) == count
        for spec in specs:
            assert len(spec.item_ids()) == ops
