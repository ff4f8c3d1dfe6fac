"""Key-choice distributions for workload generation.

YCSB workloads pick keys either uniformly or with a Zipfian skew; the paper's
evaluation picks data items "at random from a pool of all the data partitions
combined", i.e. uniformly, but the Zipfian generator is provided for
contention studies (and the ablation benchmarks).
"""

from __future__ import annotations

import bisect
import random
from abc import ABC, abstractmethod
from typing import Sequence


class KeyDistribution(ABC):
    """Chooses item ids out of a fixed universe."""

    def __init__(self, item_ids: Sequence[str], seed: int = 2020) -> None:
        if not item_ids:
            raise ValueError("key distribution needs a non-empty item universe")
        self._item_ids = list(item_ids)
        self._rng = random.Random(seed)

    @abstractmethod
    def sample(self) -> str:
        """Return one item id."""


class UniformKeys(KeyDistribution):
    """Every item is equally likely (the paper's setting)."""

    def sample(self) -> str:
        return self._rng.choice(self._item_ids)


class ZipfianKeys(KeyDistribution):
    """Zipfian-skewed choice: a few hot items absorb most accesses.

    ``theta`` is the usual YCSB skew parameter (0 = uniform, 0.99 = heavily
    skewed).  The cumulative distribution is precomputed once; sampling is a
    binary search.
    """

    def __init__(self, item_ids: Sequence[str], seed: int = 2020, theta: float = 0.99) -> None:
        super().__init__(item_ids, seed)
        if not 0.0 <= theta < 1.0 + 1e-9:
            raise ValueError("theta must be in [0, 1]")
        self._theta = theta
        weights = [1.0 / ((rank + 1) ** theta) for rank in range(len(self._item_ids))]
        total = sum(weights)
        cumulative = []
        running = 0.0
        for weight in weights:
            running += weight / total
            cumulative.append(running)
        self._cumulative = cumulative

    def sample(self) -> str:
        point = self._rng.random()
        index = bisect.bisect_left(self._cumulative, point)
        index = min(index, len(self._item_ids) - 1)
        return self._item_ids[index]
