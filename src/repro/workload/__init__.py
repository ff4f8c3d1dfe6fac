"""Workload generation: the Transactional-YCSB-like benchmark of Section 6.

The paper evaluates TFCommit with a YCSB-like multi-record workload: 1000
client requests, 5 read-write operations per transaction, keys picked at
random from the union of all partitions (producing distributed transactions),
and 100 non-conflicting transactions batched per block.
"""

from repro.workload.distributions import ZipfianKeys
from repro.workload.ycsb import TransactionSpec, YcsbWorkload

__all__ = [
    "TransactionSpec",
    "YcsbWorkload",
    "ZipfianKeys",
]
