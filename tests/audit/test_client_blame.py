"""Malicious-client defence: servers archive signed client requests (Section 3.2)."""

from __future__ import annotations


from repro.net.message import MessageType
from repro.txn.operations import ReadOp, WriteOp


class TestClientMessageArchive:
    def test_servers_keep_signed_client_requests(self, small_system):
        item = small_system.shard_map.items_of("s1")[0]
        small_system.run_transaction([ReadOp(item), WriteOp(item, 5)])
        archive = small_system.server("s1").execution._client_message_log
        assert archive, "server should archive client messages"
        # Every archived envelope is signed by the client and verifies, so the
        # server can later prove what the client actually asked for.
        assert all(small_system.network.verify_envelope(env) for env in archive)
        assert any(env.message_type is MessageType.WRITE for env in archive)

    def test_coordinator_keeps_end_transaction_requests(self, small_system):
        item = small_system.shard_map.items_of("s1")[0]
        small_system.run_transaction([WriteOp(item, 5)])
        archive = small_system.server("s0").execution._client_message_log
        end_requests = [e for e in archive if e.message_type is MessageType.END_TRANSACTION]
        assert end_requests
        assert all(small_system.network.verify_envelope(env) for env in end_requests)

    def test_archived_requests_name_the_client(self, small_system):
        item = small_system.shard_map.items_of("s1")[0]
        small_system.run_transaction([WriteOp(item, 5)], client_index=1)
        archive = small_system.server("s1").execution._client_message_log
        assert all(env.sender == "c1" for env in archive)
