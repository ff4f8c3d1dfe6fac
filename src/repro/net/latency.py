"""Network latency models for simulated-time accounting.

The paper's evaluation runs on EC2 VMs inside one AWS region; we replace the
physical network with latency models (see DESIGN.md).  A latency model
answers one question -- "how long does one message take?" -- and the
benchmark harness combines those one-way delays with measured per-server
compute to cost out a protocol round.

Models are deterministic given their RNG seed so experiment runs are
reproducible.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.common.errors import ConfigurationError


class LatencyModel(ABC):
    """Produces one-way message delays, in seconds."""

    @abstractmethod
    def sample(self) -> float:
        """Return one one-way message delay in seconds."""

    def round_trip(self) -> float:
        """One request/response round trip."""
        return self.sample() + self.sample()


@dataclass
class ConstantLatency(LatencyModel):
    """Every message takes exactly ``delay`` seconds."""

    delay: float = 0.0005

    def sample(self) -> float:
        return self.delay


@dataclass
class UniformLatency(LatencyModel):
    """Delays drawn uniformly from ``[low, high]`` seconds."""

    low: float = 0.0003
    high: float = 0.0008
    seed: int = 2020

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ConfigurationError("low latency bound exceeds high bound")
        self._rng = random.Random(self.seed)

    def sample(self) -> float:
        return self._rng.uniform(self.low, self.high)


def lan_latency(seed: int = 2020) -> LatencyModel:
    """Intra-datacenter latency, matching the paper's single-region AWS setup.

    m5 instances within one region see sub-millisecond one-way delays; we use
    0.25-0.6 ms.
    """
    return UniformLatency(low=0.00025, high=0.0006, seed=seed)


def wan_latency(seed: int = 2020) -> LatencyModel:
    """Cross-region latency (used only by the ablation benchmark)."""
    return UniformLatency(low=0.030, high=0.045, seed=seed)
