"""Tests for shards and the shard map."""

from __future__ import annotations

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import ConfigurationError, StorageError
from repro.storage.shard import ShardMap, build_uniform_partition


class TestShardMap:
    def test_uniform_partition_covers_all_items(self):
        config = SystemConfig(num_servers=3, items_per_shard=10)
        per_server, shard_map = build_uniform_partition(config)
        assert len(shard_map) == 30
        assert sorted(per_server) == ["s0", "s1", "s2"]
        assert all(len(items) == 10 for items in per_server.values())

    def test_partition_ranges_are_contiguous(self):
        config = SystemConfig(num_servers=2, items_per_shard=3)
        per_server, shard_map = build_uniform_partition(config)
        assert sorted(per_server["s0"]) == ["item-00000000", "item-00000001", "item-00000002"]
        assert shard_map.server_for("item-00000004") == "s1"

    def test_items_of_round_trips(self):
        config = SystemConfig(num_servers=2, items_per_shard=4)
        per_server, shard_map = build_uniform_partition(config)
        for server_id, items in per_server.items():
            assert sorted(shard_map.items_of(server_id)) == sorted(items)

    def test_servers_for_multiple_items(self):
        config = SystemConfig(num_servers=3, items_per_shard=2)
        _, shard_map = build_uniform_partition(config)
        servers = shard_map.servers_for(["item-00000000", "item-00000005"])
        assert servers == ["s0", "s2"]

    def test_all_items_lists_the_servers_in_order(self):
        config = SystemConfig(num_servers=3, items_per_shard=4)
        _, shard_map = build_uniform_partition(config)
        assert shard_map.all_items() == [f"item-{i:08d}" for i in range(12)]

    def test_built_from_each_servers_items(self):
        shard_map = ShardMap({"s1": ["b", "a"], "s0": ["c"]})
        assert shard_map.all_items() == ["b", "a", "c"]
        assert shard_map.items_of("s1") == ["b", "a"]
        assert shard_map.items_of("s9") == []
        assert shard_map.servers_for(["a", "c"]) == ["s0", "s1"]

    @pytest.mark.parametrize(
        "items_by_server",
        [{"s0": ["a"], "s1": ["a"]}, {"s0": ["a", "b", "a"]}],
        ids=["two-servers", "one-server-twice"],
    )
    def test_an_item_named_twice_is_refused(self, items_by_server):
        with pytest.raises(ConfigurationError, match="more than once"):
            ShardMap(items_by_server)

    def test_unknown_item_raises(self):
        _, shard_map = build_uniform_partition(SystemConfig(num_servers=1, items_per_shard=1))
        with pytest.raises(StorageError):
            shard_map.server_for("missing")
