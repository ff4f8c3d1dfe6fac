"""Tests for the Zipfian key choice."""

from __future__ import annotations

import collections

import pytest

from repro.workload.distributions import ZipfianKeys

ITEMS = [f"item-{i}" for i in range(100)]


class TestZipfianKeys:
    def test_skew_concentrates_on_head(self):
        dist = ZipfianKeys(ITEMS, seed=2, theta=0.99)
        counts = collections.Counter(dist.sample() for _ in range(5000))
        top10 = sum(count for _, count in counts.most_common(10))
        assert top10 > 0.5 * 5000

    def test_theta_zero_behaves_uniformly(self):
        dist = ZipfianKeys(ITEMS, seed=2, theta=0.0)
        counts = collections.Counter(dist.sample() for _ in range(5000))
        assert len(counts) > 90

    def test_invalid_theta_rejected(self):
        with pytest.raises(ValueError):
            ZipfianKeys(ITEMS, theta=1.5)

    def test_samples_in_universe(self):
        dist = ZipfianKeys(ITEMS, seed=2)
        assert all(dist.sample() in ITEMS for _ in range(200))

    def test_deterministic_per_seed(self):
        a = [ZipfianKeys(ITEMS, seed=3).sample() for _ in range(20)]
        b = [ZipfianKeys(ITEMS, seed=3).sample() for _ in range(20)]
        assert a == b

    def test_empty_universe_rejected(self):
        with pytest.raises(ValueError):
            ZipfianKeys([], seed=1)
