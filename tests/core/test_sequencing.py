"""The ordering service with one lane per ordering shard (DESIGN.md §5).

Three layers of coverage (``tests/core/test_ordserv.py`` covers the one-lane
setting):

- :class:`OrderingShardMap` unit semantics (server cuts, clamping,
  unknown-server rejection);
- a sharded :class:`OrderingService` driven directly with hand-built
  co-signed blocks -- lane buffering, epoch merges, anchor sealing, per-shard
  flush semantics, and a random-interleaving property sweep;
- the full scaled deployment running over ``sharded_sequencer`` -- identical
  replicated logs, clean anchor-verifying audits, coordinator failover.
  (That neither setting's behaviour moved when the two services became one
  is pinned by ``tests/integration/test_golden_fingerprints.py``.)
"""

from __future__ import annotations

import random

import pytest

from repro.common.errors import ConfigurationError
from repro.common.timestamps import Timestamp
from repro.core.grouping import ServerGroup
from repro.core.sequencing import OrderingService, OrderingShardMap, sharded_sequencer
from repro.ledger.block import BlockDecision, make_partial_block
from repro.obs import Observability
from repro.txn.transaction import ReadSetEntry, Transaction, WriteSetEntry
from repro.workload.ycsb import PartitionedWorkload


# -- direct-drive helpers --------------------------------------------------------------

SERVERS = tuple(f"s{i}" for i in range(4))
ITEMS = {sid: [f"{sid}-item-{j}" for j in range(4)] for sid in SERVERS}


def make_map(num_shards: int = 2, servers=SERVERS) -> OrderingShardMap:
    return OrderingShardMap.for_servers(servers, num_shards)


def sharded(num_shards: int = 2, epoch_max_blocks: int = 32) -> OrderingService:
    return OrderingService(
        Observability(), shard_map=make_map(num_shards), epoch_max_blocks=epoch_max_blocks
    )


def publish(service, counter: int, members, items=None):
    """Hand the service one co-signed block touching ``members``' items."""
    members = sorted(members)
    items = items or [ITEMS[sid][counter % len(ITEMS[sid])] for sid in members]
    zero = Timestamp.zero()
    txn = Transaction(
        txn_id=f"t{counter}",
        client_id="c0",
        commit_ts=Timestamp(counter + 1, "c0"),
        read_set=[ReadSetEntry(item, 0, zero, zero) for item in items],
        write_set=[WriteSetEntry(item, counter) for item in items],
    )
    block = make_partial_block(0, [txn], b"\x00" * 32).with_decision(
        BlockDecision.COMMIT, {sid: b"\x01" * 32 for sid in members}
    )
    group = ServerGroup(members=frozenset(members), coordinator=min(members))
    return service.publish(block, group), block, group


def stream_is_gapless_chain(service) -> bool:
    previous = None
    for ordered in service.ordered_blocks:
        if ordered.global_height != (0 if previous is None else previous.global_height + 1):
            return False
        if previous is not None and ordered.block.previous_hash != previous.block.block_hash():
            return False
        previous = ordered
    return True


def anchors_chain_and_cover(service) -> bool:
    anchors = service.epoch_anchors
    expected_start = 0
    previous_hash = None
    for anchor in anchors:
        if anchor.start_height != expected_start:
            return False
        if previous_hash is not None and anchor.previous != previous_hash:
            return False
        expected_start = anchor.end_height
        previous_hash = anchor.anchor_hash()
    return not anchors or anchors[-1].end_height <= service.stream_length


class TestOrderingShardMap:
    def test_contiguous_cut_over_sorted_servers(self):
        shard_map = make_map(2)
        assert [shard_map.shard_of(sid) for sid in SERVERS] == [0, 0, 1, 1]
        assert shard_map.num_shards == 2

    def test_ids_sort_as_strings_so_big_clusters_are_not_contiguous(self):
        # Documented as-is: "s10" < "s2", so shard 0 of 12 servers over 2
        # shards is {s0, s1, s10, s11, s2, s3}, not s0..s5.  Any partition is
        # dependency-safe; the gated scaleout numbers pin this cut.
        shard_map = make_map(2, servers=tuple(f"s{i}" for i in range(12)))
        shard_zero = {sid for sid, shard in shard_map.shard_by_server.items() if shard == 0}
        assert shard_zero == {"s0", "s1", "s10", "s11", "s2", "s3"}

    def test_shards_of_dedups_and_sorts(self):
        shard_map = make_map(2)
        assert shard_map.shards_of(["s3", "s0", "s1"]) == (0, 1)
        assert shard_map.shards_of(["s0", "s1"]) == (0,)

    def test_shard_count_clamps_to_server_count(self):
        assert make_map(99).num_shards == len(SERVERS)
        assert make_map(0).num_shards == 1
        assert make_map(-3).num_shards == 1

    def test_unknown_server_rejected(self):
        with pytest.raises(ConfigurationError):
            make_map(2).shard_of("s99")

    def test_empty_server_set_rejected(self):
        with pytest.raises(ConfigurationError):
            OrderingShardMap.for_servers([], 2)


class TestShardedServiceLanes:
    def test_single_shard_blocks_float_until_flush(self):
        service = sharded(2)
        publish(service, 0, ["s0"])
        publish(service, 1, ["s2"])
        assert service.pending_count == 2
        assert service.stream_length == 0
        service.flush()
        assert service.pending_count == 0
        assert service.stream_length == 2
        # The trailing flush seals exactly one epoch covering the stream.
        assert len(service.epoch_anchors) == 1
        assert service.epoch_anchors[0].end_height == 2

    def test_cross_shard_block_merges_lanes_and_seals_an_anchor(self):
        service = sharded(2)
        publish(service, 0, ["s0"])
        publish(service, 1, ["s2"])
        publish(service, 2, ["s1", "s3"])  # spans both shards
        assert service.pending_count == 0
        assert service.stream_length == 3
        # The cross-shard block lands last: both lanes drained first.
        assert service.ordered_blocks[-1].shards == (0, 1)
        [anchor] = service.epoch_anchors
        assert (anchor.start_height, anchor.end_height) == (0, 3)
        assert stream_is_gapless_chain(service)
        assert service.verify_shard_chains()

    def test_publish_is_idempotent_per_round_identity(self):
        service = sharded(2)
        ok, block, group = publish(service, 0, ["s0"])
        assert ok
        assert service.seen(block, group)
        assert not service.publish(block, group)
        assert service.pending_count == 1

    def test_capacity_drain_lands_prefix_without_an_anchor(self):
        service = sharded(2, epoch_max_blocks=2)
        publish(service, 0, ["s0"])
        publish(service, 1, ["s1"])
        # The lane hit capacity: blocks landed, but no merge happened, so
        # no epoch anchor was sealed (anchors mark merges, not pressure).
        assert service.pending_count == 0
        assert service.stream_length == 2
        assert service.epoch_anchors == []

    def test_flush_conflicting_drains_only_the_overlapping_lane_prefix(self):
        service = sharded(2)
        publish(service, 0, ["s0"])  # lane 0, before the overlap
        publish(service, 1, ["s1"])  # lane 0, the overlap
        publish(service, 2, ["s0"])  # lane 0, after the overlap: keeps floating
        publish(service, 3, ["s2"])  # lane 1: untouched
        conflicting = ServerGroup(members=frozenset({"s1"}), coordinator="s1")
        service.flush_conflicting(conflicting)
        # Prefix through the last overlapping block landed, in lane order.
        assert service.stream_length == 2
        assert [o.block.transactions[0].txn_id for o in service.ordered_blocks] == ["t0", "t1"]
        # The post-overlap block and the other lane still float, unanchored.
        assert service.pending_count == 2
        assert service.epoch_anchors == []

    def test_flush_conflicting_ignores_groups_of_other_shards(self):
        service = sharded(2)
        publish(service, 0, ["s0"])
        other_shard = ServerGroup(members=frozenset({"s3"}), coordinator="s3")
        service.flush_conflicting(other_shard)
        assert service.pending_count == 1
        assert service.stream_length == 0


class TestShardedServiceProperty:
    """Random publish interleavings across shard layouts: the finalized
    stream must always be a gapless dependency-respecting hash chain whose
    per-shard chains and epoch anchors replay from the stream itself."""

    @staticmethod
    def _random_run(rng: random.Random, num_shards: int):
        service = sharded(num_shards, epoch_max_blocks=rng.choice([1, 2, 4, 32]))
        for counter in range(rng.randint(5, 14)):
            members = rng.sample(SERVERS, rng.randint(1, 3))
            publish(service, counter, members)
            if rng.random() < 0.15:
                lucky = rng.choice(SERVERS)
                service.flush_conflicting(
                    ServerGroup(members=frozenset({lucky}), coordinator=lucky)
                )
        service.flush()
        return service

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4])
    def test_random_interleavings_keep_every_invariant(self, num_shards):
        rng = random.Random(7000 + num_shards)
        for _ in range(12):
            service = self._random_run(rng, num_shards)
            assert service.verify_dependency_order()
            assert service.verify_shard_chains()
            assert stream_is_gapless_chain(service)
            assert anchors_chain_and_cover(service)
            assert service.pending_count == 0


# -- full-deployment coverage ----------------------------------------------------------


def partitioned_specs(system, count: int, locality: float = 1.0, seed: int = 3):
    server_ids = list(system.config.server_ids)
    partitions = []
    for start in range(0, len(server_ids), 2):
        items = []
        for server_id in server_ids[start : start + 2]:
            items.extend(system.shard_map.items_of(server_id))
        partitions.append(items)
    workload = PartitionedWorkload(
        partitions=partitions,
        ops_per_txn=2,
        locality=locality,
        conflict_free_window=count,
        seed=seed,
    )
    return workload.generate(count)


class TestShardedDeployment:
    def test_commits_replicate_one_global_log(self, make_scaled_system):
        system = make_scaled_system(num_servers=4, sequencer=sharded_sequencer(2))
        result = system.run_workload(
            partitioned_specs(system, 12, locality=0.8), num_clients=2
        )
        assert result.committed == 12
        chains = {
            server_id: tuple(block.block_hash() for block in server.log)
            for server_id, server in system.servers.items()
        }
        assert len(set(chains.values())) == 1
        assert system.ordering.verify_dependency_order()
        assert system.ordering.verify_shard_chains()

    def test_audit_verifies_the_anchor_chain(self, make_scaled_system):
        system = make_scaled_system(num_servers=4, sequencer=sharded_sequencer(2))
        system.run_workload(partitioned_specs(system, 10, locality=0.7), num_clients=2)
        assert len(system.ordering.epoch_anchors) >= 1
        report = system.audit()
        assert report.ok

    def test_the_services_counters_reach_the_deployments_registry(self, make_scaled_system):
        """The deployment hands the service its observability at construction,
        so what the service counts is in ``system.sim.obs.metrics``."""
        system = make_scaled_system(num_servers=4, sequencer=sharded_sequencer(2))
        system.run_workload(partitioned_specs(system, 12, locality=0.7), num_clients=2)
        system.flush()
        service, metrics = system.ordering, system.sim.obs.metrics
        stream = service.ordered_blocks
        assert service.pending_count == 0 and len(stream) >= 1
        assert metrics.counter_value("ordserv.published") == len(stream)
        assert metrics.counter_value("ordserv.ordered") == len(stream)
        assert metrics.snapshot()["gauges"]["ordserv.stream_length"] == len(stream)
        assert len(service.epoch_anchors) >= 1
        assert metrics.counter_value("ordserv.epochs") == len(service.epoch_anchors)

    def test_fail_over_with_a_sharded_sequencer(self, make_scaled_system):
        system = make_scaled_system(num_servers=4, sequencer=sharded_sequencer(2))
        system.run_workload(partitioned_specs(system, 6), num_clients=2)
        leaders = sorted(system.active_group_coordinators)
        outcome = system.fail_over(leaders[0])
        assert outcome.new_view >= 1
        # The deployment keeps committing after the view change, and the
        # stream stays dependency-ordered across the failover flush.
        result = system.run_workload(partitioned_specs(system, 6, seed=5), num_clients=2)
        assert result.committed == 6
        assert system.ordering.verify_dependency_order()
        assert system.audit().ok


class TestDefaultSequencer:
    def test_no_sequencer_means_one_submission_order_lane(self, make_scaled_system):
        """``ScaledFidesSystem(config)`` is ``sequencer=single_sequencer(0)``."""
        from repro.core.scaled import ScaledFidesSystem
        from repro.net.latency import ConstantLatency

        injected = make_scaled_system(num_servers=4, reorder_window=0)
        default = ScaledFidesSystem(injected.config, latency=ConstantLatency(0.0002))

        def trace(system):
            result = system.run_workload(
                partitioned_specs(system, 10, locality=0.8), num_clients=2
            )
            return (
                result.committed,
                tuple(o.block.block_hash() for o in system.ordering.ordered_blocks),
            )

        assert trace(default) == trace(injected)
        assert default.ordering.shard_map is None
        assert default.ordering.epoch_anchors == []
