"""How a block's transactions land on one shard -- the shared apply rules.

Two code paths must hand the datastore *byte-identical* batches for a given
block, or replayed Merkle roots would diverge from the live ones:

* the live path -- :class:`~repro.server.commitment.CommitmentLayer` applying
  a decided block (and computing the speculative root it votes with);
* the recovery path -- :mod:`repro.recovery` replaying persisted or
  peer-served blocks into a restored store.

Both import these functions, which makes the prefix-replay invariant ("apply
any log prefix from genesis or from a checkpoint and you reproduce the live
shard roots") a property of one definition instead of two copies.
"""

from __future__ import annotations

from typing import Dict, List

from repro.storage.datastore import DataStore


def block_local_writes(transactions, store: DataStore) -> Dict[str, object]:
    """Writes from a batch that land on ``store``'s shard, latest timestamp wins.

    The merge rule behind every speculative-root computation (TFCommit's vote
    phase) and behind catch-up verification's root replay.
    """
    writes: Dict[str, object] = {}
    for txn in sorted(transactions, key=lambda t: t.commit_ts):
        for entry in txn.write_set:
            if entry.item_id in store:
                writes[entry.item_id] = entry.new_value
    return writes


def block_store_commits(block, store: DataStore) -> List[tuple]:
    """The ``(commit_ts, writes, reads)`` triples ``block`` applies to ``store``.

    Ready to hand to :meth:`DataStore.apply_batch`; transactions touching
    nothing on this shard contribute no triple, and allocate nothing.
    """
    commits = []
    for txn in block.transactions:
        local_writes = local_reads = None
        for entry in txn.write_set:
            if entry.item_id in store:
                if local_writes is None:
                    local_writes = {}
                local_writes[entry.item_id] = entry.new_value
        for entry in txn.read_set:
            if entry.item_id in store:
                if local_reads is None:
                    local_reads = []
                local_reads.append(entry.item_id)
        if local_writes is not None or local_reads is not None:
            commits.append((txn.commit_ts, local_writes or {}, local_reads or []))
    return commits
