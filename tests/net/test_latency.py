"""Tests for the latency models."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.net.latency import (
    ConstantLatency,
    UniformLatency,
    lan_latency,
    wan_latency,
)


class TestLatencyModels:
    def test_constant_latency(self):
        model = ConstantLatency(0.002)
        assert model.sample() == 0.002
        assert model.round_trip() == pytest.approx(0.004)

    def test_uniform_latency_within_bounds(self):
        model = UniformLatency(low=0.001, high=0.002, seed=1)
        samples = [model.sample() for _ in range(200)]
        assert all(0.001 <= s <= 0.002 for s in samples)

    def test_uniform_latency_deterministic_per_seed(self):
        a = [UniformLatency(seed=5).sample() for _ in range(10)]
        b = [UniformLatency(seed=5).sample() for _ in range(10)]
        assert a == b

    def test_uniform_latency_rejects_inverted_bounds(self):
        with pytest.raises(ConfigurationError):
            UniformLatency(low=0.2, high=0.1)

    def test_lan_is_much_faster_than_wan(self):
        lan = sum(lan_latency(seed=1).sample() for _ in range(50)) / 50
        wan = sum(wan_latency(seed=1).sample() for _ in range(50)) / 50
        assert wan > 10 * lan
