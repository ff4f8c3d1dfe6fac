"""Property: replaying any log prefix reproduces the live shard Merkle roots.

This is the invariant catch-up verification stands on: a recovering server
replays fetched blocks into its restored store and compares the resulting
root against the root each block advertises.  If live application and replay
could ever diverge -- different write-merge order, different batch grouping
-- recovery would reject honest peers.  The suite drives seeded random
workloads through real deployments and replays every prefix, from genesis
and from every checkpoint, asserting byte-identical roots at every height.
"""

from __future__ import annotations

import pytest

from repro.crypto.merkle import MerkleTree
from repro.storage.apply import block_store_commits
from repro.storage.datastore import DataStore


def shard_items(system, server_id):
    return {
        item: 0 for item in system.shard_map.items_of(server_id)
    }


def live_roots_per_height(system, server_id, specs_batches):
    """Run the workload batch by batch, recording the store root after each block."""
    server = system.server(server_id)
    roots = {}
    for specs in specs_batches:
        system.run_workload(specs)
        roots[server.log.height] = server.store.merkle_root()
    return roots


class TestPrefixReplayReproducesRoots:
    @pytest.mark.parametrize("seed", [3, 17, 51])
    def test_replay_from_genesis_matches_live_application(
        self, make_system, workload_factory, seed
    ):
        system = make_system(seed=seed, txns_per_block=2)
        workload = workload_factory(system, ops_per_txn=3, seed=seed)
        result = system.run_workload(workload.generate(10))
        # Conflicting specs may abort -- good: abort blocks are part of the
        # log and must replay as no-ops.
        assert result.committed > 0
        for server_id in system.server_ids:
            server = system.server(server_id)
            live_root = server.store.merkle_root()
            replayed = DataStore(
                shard_items(system, server_id),
                multi_versioned=True,
            )
            for block in server.log:
                if block.is_commit:
                    replayed.apply_batch(block_store_commits(block, replayed))
                    if server_id in block.roots:
                        # Every intermediate advertised root is reproduced.
                        # (Abort blocks are skipped: their recorded roots are
                        # speculative -- computed with writes that were never
                        # applied.)
                        assert replayed.merkle_root() == block.roots[server_id]
            assert replayed.merkle_root() == live_root
            assert replayed.snapshot() == server.snapshot()

    def test_replay_from_checkpoint_snapshot_matches_live_application(
        self, make_system, workload_factory
    ):
        system = make_system(seed=29, txns_per_block=2)
        workload = workload_factory(system, ops_per_txn=2, seed=29)
        assert system.run_workload(workload.generate(6)).committed == 6
        system.create_checkpoint()
        assert system.run_workload(workload.generate(6)).committed == 6
        for server_id in system.server_ids:
            server = system.server(server_id)
            state = server.state_store.load()
            replayed = DataStore.import_state(state.datastore_state)
            # The checkpoint snapshot's root is the checkpoint's shard root.
            assert replayed.merkle_root() == server.latest_checkpoint.shard_roots[
                server_id
            ]
            for block, recorded_root in state.blocks:
                if block.is_commit:
                    replayed.apply_batch(block_store_commits(block, replayed))
                assert replayed.merkle_root() == recorded_root
            assert replayed.merkle_root() == server.store.merkle_root()

    def test_scaled_group_blocks_replay_identically(
        self, make_scaled_system, workload_factory
    ):
        system = make_scaled_system(num_servers=4, txns_per_block=2)
        workload = workload_factory(system, ops_per_txn=2, seed=13)
        result = system.run_workload(workload.generate(10))
        assert result.committed == 10
        for server_id in system.server_ids:
            server = system.server(server_id)
            replayed = DataStore(shard_items(system, server_id), multi_versioned=True)
            for block in server.log:
                if block.is_commit:
                    replayed.apply_batch(block_store_commits(block, replayed))
                if block.is_commit and server_id in block.roots:
                    assert replayed.merkle_root() == block.roots[server_id]
            assert replayed.merkle_root() == server.store.merkle_root()

    def test_import_export_is_the_identity_on_roots(self, make_system, workload_factory):
        system = make_system(seed=7)
        workload = workload_factory(system, seed=7)
        system.run_workload(workload.generate(5))
        for server in system.servers.values():
            clone = DataStore.import_state(server.store.export_state())
            assert clone.merkle_root() == server.store.merkle_root()
            assert clone.merkle_root() == MerkleTree(clone.snapshot()).root
            # Version chains survive: historical reads agree everywhere.
            for item_id in clone.item_ids():
                assert clone.versions(item_id) == server.store.versions(item_id)
