"""Datastore substrate: version chains, shards, and partitioning.

Fides partitions the database into shards, one per server (Section 3.1).
Each data item carries a read timestamp ``rts`` and a write timestamp ``wts``
recording the last transaction that read / wrote it; the datastore can be
single- or multi-versioned (Section 4.2.1).
"""

from repro.storage.record import RecordVersion
from repro.storage.datastore import DataStore
from repro.storage.shard import ShardMap

__all__ = ["DataStore", "RecordVersion", "ShardMap"]
