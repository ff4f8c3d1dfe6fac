"""Tests for dynamic server groups (Section 4.6)."""

from __future__ import annotations

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import ValidationError
from repro.common.timestamps import Timestamp
from repro.core.grouping import (
    ServerGroup,
    dependency_between,
    group_for_batch,
)
from repro.storage.shard import build_uniform_partition
from repro.txn.transaction import ReadSetEntry, Transaction, WriteSetEntry


@pytest.fixture
def shard_map():
    _, shard_map = build_uniform_partition(SystemConfig(num_servers=4, items_per_shard=5))
    return shard_map


def make_txn(reads=(), writes=(), counter=1, txn_id="t"):
    zero = Timestamp.zero()
    return Transaction(
        txn_id=txn_id,
        client_id="c0",
        commit_ts=Timestamp(counter, "c0"),
        read_set=[ReadSetEntry(i, 0, zero, zero) for i in reads],
        write_set=[WriteSetEntry(i, 1) for i in writes],
    )


class TestServerGroup:
    def test_group_covers_accessed_servers_only(self, shard_map):
        txn = make_txn(reads=["item-00000000"], writes=["item-00000006"])
        group = group_for_batch([txn], shard_map)
        assert group.members == frozenset({"s0", "s1"})
        assert group.coordinator == "s0"

    def test_coordinator_must_be_member(self):
        with pytest.raises(ValidationError):
            ServerGroup(members=frozenset({"s1"}), coordinator="s9")

    def test_empty_transaction_rejected(self, shard_map):
        with pytest.raises(ValidationError):
            group_for_batch([make_txn()], shard_map)

    def test_group_for_batch_unions_members(self, shard_map):
        txns = [
            make_txn(writes=["item-00000000"], txn_id="a"),
            make_txn(writes=["item-00000015"], txn_id="b"),
        ]
        group = group_for_batch(txns, shard_map)
        assert group.members == frozenset({"s0", "s3"})

    def test_overlap(self):
        g1 = ServerGroup(frozenset({"s0", "s1"}), "s0")
        g2 = ServerGroup(frozenset({"s1", "s2"}), "s1")
        g3 = ServerGroup(frozenset({"s3"}), "s3")
        assert g1.overlaps(g2)
        assert not g1.overlaps(g3)


class TestDependencies:
    def test_write_read_dependency_detected(self):
        earlier = [make_txn(writes=["x"], counter=1)]
        later = [make_txn(reads=["x"], counter=2)]
        assert dependency_between(earlier, later)

    def test_read_write_dependency_detected(self):
        earlier = [make_txn(reads=["x"], counter=1)]
        later = [make_txn(writes=["x"], counter=2)]
        assert dependency_between(earlier, later)

    def test_disjoint_batches_independent(self):
        earlier = [make_txn(writes=["x"], counter=1)]
        later = [make_txn(writes=["y"], counter=2)]
        assert not dependency_between(earlier, later)

    def test_read_read_is_independent(self):
        earlier = [make_txn(reads=["x"], counter=1)]
        later = [make_txn(reads=["x"], counter=2)]
        assert not dependency_between(earlier, later)
