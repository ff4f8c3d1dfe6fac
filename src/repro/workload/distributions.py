"""Zipfian key choice: the home skew of the scaled deployment's workload.

The paper's evaluation picks data items "at random from a pool of all the
data partitions combined", i.e. uniformly (:class:`~repro.workload.ycsb.
YcsbWorkload` draws that itself).  :class:`ZipfianKeys` skews a choice
instead; :class:`~repro.workload.ycsb.PartitionedWorkload` uses it to draw
each transaction's home partition when ``home_skew_theta`` > 0.
"""

from __future__ import annotations

import bisect
import random
from typing import Sequence


class ZipfianKeys:
    """Zipfian-skewed choice out of a fixed universe: a few hot items absorb most accesses.

    ``theta`` is the usual YCSB skew parameter (0 = uniform, 0.99 = heavily
    skewed).  The cumulative distribution is precomputed once; sampling is a
    binary search.
    """

    def __init__(self, item_ids: Sequence, seed: int = 2020, theta: float = 0.99) -> None:
        if not item_ids:
            raise ValueError("key distribution needs a non-empty item universe")
        if not 0.0 <= theta < 1.0 + 1e-9:
            raise ValueError("theta must be in [0, 1]")
        self._item_ids = list(item_ids)
        self._rng = random.Random(seed)
        weights = [1.0 / ((rank + 1) ** theta) for rank in range(len(self._item_ids))]
        total = sum(weights)
        cumulative = []
        running = 0.0
        for weight in weights:
            running += weight / total
            cumulative.append(running)
        self._cumulative = cumulative

    def sample(self):
        """Return one item."""
        point = self._rng.random()
        index = bisect.bisect_left(self._cumulative, point)
        index = min(index, len(self._item_ids) - 1)
        return self._item_ids[index]
