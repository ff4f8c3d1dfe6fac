"""Shards and the shard map (partitioning of items onto servers).

The data is "partitioned into multiple shards and distributed on these
servers" (Section 3.1).  A :class:`ShardMap` is the directory clients use
to find which server stores which item -- the paper's "lookup and directory
service for the database partitions" (Section 4.1).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.common.config import SystemConfig
from repro.common.errors import ConfigurationError, StorageError
from repro.common.types import ItemId, ServerId, Value, make_item_id
from repro.storage.record import INITIAL_VALUE


class ShardMap:
    """Directory mapping every item id to the server that stores it.

    Built from each server's item ids, in order: ``all_items()`` lists the
    servers' items in the order given.
    """

    def __init__(self, items_by_server: Mapping[ServerId, Sequence[ItemId]]) -> None:
        self._by_server: Dict[ServerId, Tuple[ItemId, ...]] = {
            server_id: tuple(item_ids) for server_id, item_ids in items_by_server.items()
        }
        self._assignment: Dict[ItemId, ServerId] = {}
        for server_id, item_ids in self._by_server.items():
            self._assignment.update(dict.fromkeys(item_ids, server_id))
        if len(self._assignment) != sum(map(len, self._by_server.values())):
            raise ConfigurationError("the shard map names an item more than once")

    def server_for(self, item_id: ItemId) -> ServerId:
        """Return the server storing ``item_id``."""
        try:
            return self._assignment[item_id]
        except KeyError:
            raise StorageError(f"no server stores item {item_id!r}") from None

    def items_of(self, server_id: ServerId) -> List[ItemId]:
        """Return the item ids stored by ``server_id``."""
        return list(self._by_server.get(server_id, ()))

    def servers_for(self, item_ids: Iterable[ItemId]) -> List[ServerId]:
        """Return the distinct servers covering ``item_ids`` (sorted)."""
        return sorted({self.server_for(item_id) for item_id in item_ids})

    def all_items(self) -> List[ItemId]:
        return list(self._assignment)

    def __len__(self) -> int:
        return len(self._assignment)


def build_uniform_partition(config: SystemConfig):
    """Create per-server item dictionaries and the matching shard map.

    Items are named ``item-00000000`` ... and assigned round-robin-free:
    server ``i`` owns the contiguous range
    ``[i * items_per_shard, (i+1) * items_per_shard)``, mirroring the paper's
    setup of one shard of ``items_per_shard`` items per server.

    Returns ``(per_server_items, shard_map)``.
    """
    per_server: Dict[ServerId, Dict[ItemId, Value]] = {}
    items_by_server: Dict[ServerId, List[ItemId]] = {}
    for server_index, server_id in enumerate(config.server_ids):
        base = server_index * config.items_per_shard
        item_ids = list(map(make_item_id, range(base, base + config.items_per_shard)))
        items_by_server[server_id] = item_ids
        per_server[server_id] = dict.fromkeys(item_ids, INITIAL_VALUE)
    return per_server, ShardMap(items_by_server)
