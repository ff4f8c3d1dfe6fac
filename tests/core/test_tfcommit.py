"""End-to-end tests of the TFCommit protocol on an honest cluster."""

from __future__ import annotations


from repro.crypto.cosi import cosi_verify
from repro.txn.operations import ReadOp, WriteOp


class TestHonestCommit:
    def test_single_transaction_commits_everywhere(self, small_system):
        # Touch one item per shard so every server is involved.
        per_server_items = [small_system.shard_map.items_of(sid)[0] for sid in small_system.server_ids]
        ops = [WriteOp(item, 11) for item in per_server_items]
        outcome = small_system.run_transaction(ops)
        assert outcome.committed
        for server_id in small_system.server_ids:
            server = small_system.server(server_id)
            assert len(server.log) == 1
            local_item = small_system.shard_map.items_of(server_id)[0]
            assert server.store.read(local_item).value == 11

    def test_block_carries_valid_cosign_from_all_servers(self, small_system):
        item = small_system.shard_map.all_items()[0]
        small_system.run_transaction([WriteOp(item, 5)])
        block = small_system.server("s0").log[0]
        assert block.cosign is not None
        assert set(block.cosign.signer_ids) == set(small_system.server_ids)
        assert cosi_verify(
            block.cosign, block.body_digest(), small_system.network.public_key_directory()
        )

    def test_logs_are_identical_across_servers(self, small_system, workload_factory):
        workload = workload_factory(small_system, ops_per_txn=2, seed=5)
        result = small_system.run_workload(workload.generate(6))
        assert result.committed == 6
        hashes = {
            server_id: tuple(block.block_hash() for block in server.log)
            for server_id, server in small_system.servers.items()
        }
        assert len(set(hashes.values())) == 1

    def test_block_records_roots_of_involved_servers(self, small_system):
        item_s1 = small_system.shard_map.items_of("s1")[0]
        small_system.run_transaction([ReadOp(item_s1), WriteOp(item_s1, 3)])
        block = small_system.server("s0").log[0]
        assert "s1" in block.roots
        # Only s1 stores the touched item, so only s1's root is required.
        assert set(block.roots) == {"s1"}

    def test_datastore_root_matches_cosigned_root_after_commit(self, small_system):
        item_s1 = small_system.shard_map.items_of("s1")[0]
        small_system.run_transaction([WriteOp(item_s1, 3)])
        block = small_system.server("s0").log[0]
        assert small_system.server("s1").store.merkle_root() == block.roots["s1"]

    def test_timing_breakdown_has_all_phases(self, small_system):
        item = small_system.shard_map.all_items()[0]
        small_system.run_transaction([WriteOp(item, 5)])
        timing = small_system.coordinator.results[-1].timing
        assert {"get_vote", "challenge", "decision", "aggregate"} <= set(timing.phases)
        assert timing.total > 0
        assert timing.num_txns == 1

    def test_read_only_transaction_commits(self, small_system):
        item = small_system.shard_map.all_items()[0]
        outcome = small_system.run_transaction([ReadOp(item)])
        assert outcome.committed


class TestAbortPath:
    def test_conflicting_transaction_aborts_and_is_logged(self, small_system):
        item = small_system.shard_map.all_items()[0]
        small_system.run_transaction([ReadOp(item), WriteOp(item, 1)])

        # Build a stale transaction: read before the first commit, commit after.
        client = small_system.client(1)
        session = client.begin()
        client.read(session, item)
        small_system.run_transaction([ReadOp(item), WriteOp(item, 2)], client_index=0)
        outcome = client.commit(session)
        assert outcome.status == "aborted"
        # The abort is co-signed and appended to the log like any block.
        abort_blocks = [b for b in small_system.server("s0").log if not b.is_commit]
        assert len(abort_blocks) == 1
        assert abort_blocks[0].cosign is not None

    def test_aborted_transaction_does_not_change_data(self, small_system):
        item = small_system.shard_map.all_items()[0]
        small_system.run_transaction([ReadOp(item), WriteOp(item, 1)])
        client = small_system.client(1)
        session = client.begin()
        client.read(session, item)
        small_system.run_transaction([ReadOp(item), WriteOp(item, 2)])
        client.write(session, item, 999)
        outcome = client.commit(session)
        assert outcome.status == "aborted"
        assert small_system.server("s0").store.read(item).value == 2

    def test_stale_commit_timestamp_is_ignored(self, small_system):
        from repro.common.timestamps import Timestamp
        from repro.net.forms import EndTxn, read_reply
        from repro.net.message import Envelope, MessageType
        from repro.txn.transaction import Transaction, WriteSetEntry

        item = small_system.shard_map.all_items()[0]
        small_system.run_transaction([ReadOp(item), WriteOp(item, 1)])
        # Hand-craft an end_transaction with a timestamp below the last commit.
        stale_txn = Transaction(
            txn_id="stale",
            client_id="c0",
            commit_ts=Timestamp(0, "c0"),
            read_set=[],
            write_set=[WriteSetEntry(item, 123)],
        )
        envelope = small_system.network.sign_envelope(
            Envelope(
                "c0", "s0", MessageType.END_TRANSACTION, EndTxn(stale_txn, stale_txn.commit_ts)
            )
        )
        data = small_system.network.send(
            "c0", "s0", MessageType.END_TRANSACTION, envelope.payload, presigned=envelope
        )
        (outcome,) = read_reply(MessageType.END_TRANSACTION, "s0", data).outcomes
        assert (outcome.txn_id, outcome.status) == ("stale", "failed")
        assert small_system.server("s0").store.read(item).value == 1
