"""Dynamic server groups for scaled TFCommit (Section 4.6).

To avoid dragging every server into every termination, "servers are divided
into small dynamic groups.  The servers accessed by a transaction form one
group, in which one server acts as the coordinator to terminate that
transaction."  Each group runs TFCommit internally; the resulting blocks are
handed to the ordering service (:mod:`repro.core.sequencing`) which broadcasts a
single consistently ordered block stream to all servers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Sequence, Set

from repro.common.errors import ValidationError
from repro.common.wire import ID_SET, STR, wire_form
from repro.storage.shard import ShardMap
from repro.txn.transaction import Transaction


def _pick_coordinator(servers: Set[str], exclude: Iterable[str]) -> str:
    """Deterministic coordinator choice: the smallest member not excluded.

    ``exclude`` names servers deposed by a view change (or currently
    crashed): they stay group *members* -- the transaction still touches
    their shards and their co-sign is still required -- but they no longer
    lead rounds.  If every member is excluded the plain minimum is returned
    so group formation itself never fails; the round will fail (and surface)
    on its own.
    """
    candidates = set(servers) - set(exclude)
    return min(candidates) if candidates else min(servers)


@wire_form(("members", ID_SET), ("coordinator", STR))
@dataclass(frozen=True, slots=True)
class ServerGroup:
    """One dynamic group: the servers a transaction (or batch) touches."""

    members: FrozenSet[str]
    coordinator: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", frozenset(self.members))
        if self.coordinator not in self.members:
            raise ValidationError("coordinator must be a member of its group")

    def overlaps(self, other: "ServerGroup") -> bool:
        """True iff the two groups share at least one server (Gi ∩ Gj ≠ ∅)."""
        return bool(self.members & other.members)

    def __len__(self) -> int:
        return len(self.members)


def group_for_batch(
    transactions: Sequence[Transaction], shard_map: ShardMap, exclude: Iterable[str] = ()
) -> ServerGroup:
    """Form the group covering a whole batch of transactions."""
    servers: Set[str] = set()
    for txn in transactions:
        servers.update(shard_map.servers_for(txn.items_accessed()))
    if not servers:
        raise ValidationError("batch accesses no known items")
    return ServerGroup(
        members=frozenset(servers), coordinator=_pick_coordinator(servers, exclude)
    )


def dependency_between(
    earlier: Sequence[Transaction], later: Sequence[Transaction]
) -> bool:
    """True iff any transaction in ``later`` depends on one in ``earlier``.

    Two blocks from overlapping groups may carry a data dependency (e.g. Tj
    wrote an item after Ti read it); the ordering service must preserve the
    order of such blocks.  Disjoint item sets mean the blocks can be ordered
    arbitrarily.
    """
    earlier_items: Set[str] = set()
    earlier_writes: Set[str] = set()
    for txn in earlier:
        earlier_items.update(txn.items_accessed())
        earlier_writes.update(txn.items_written())
    for txn in later:
        accessed = txn.items_accessed()
        if accessed & earlier_writes:
            return True
        if txn.items_written() & earlier_items:
            return True
    return False
