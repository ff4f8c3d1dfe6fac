"""Tests for the database server's message dispatch."""

from __future__ import annotations

import pytest

from repro.common.errors import ProtocolError
from repro.crypto.keys import keypair_for
from repro.crypto.merkle import verify_inclusion
from repro.net.latency import ConstantLatency
from repro.net.message import MessageType
from repro.net.network import Network
from repro.obs import Observability
from repro.server.server import DatabaseServer
from repro.sim.clock import VirtualClock


@pytest.fixture
def wired_server():
    network = Network(latency=ConstantLatency(0.0001))
    server = DatabaseServer(
        "s0", keypair_for("s0"), {"a": 1, "b": 2}, VirtualClock(), Observability()
    )
    server.attach(network)
    network.register_observer("c0", keypair_for("c0"))
    return network, server


class TestExecutionMessages:
    def test_begin_read_write_flow(self, wired_server):
        network, server = wired_server
        assert network.send("c0", "s0", MessageType.BEGIN_TRANSACTION, {"txn_id": "t1"})["ok"]
        read = network.send("c0", "s0", MessageType.READ, {"txn_id": "t1", "item_id": "a"})
        assert read["value"] == 1
        write = network.send(
            "c0", "s0", MessageType.WRITE, {"txn_id": "t1", "item_id": "a", "value": 5}
        )
        assert write["ok"] and write["old"]["value"] == 1
        # Writes stay buffered until the commit protocol applies them.
        assert server.store.read("a").value == 1

    def test_client_messages_are_archived(self, wired_server):
        network, server = wired_server
        network.send("c0", "s0", MessageType.BEGIN_TRANSACTION, {"txn_id": "t1"})
        network.send("c0", "s0", MessageType.READ, {"txn_id": "t1", "item_id": "a"})
        assert len(server.execution.client_message_log) == 2

    def test_unknown_message_type_rejected(self, wired_server):
        # Every real MessageType member is dispatched (the static analyzer's
        # totality check), so an undispatched type has to be faked.
        class _BogusType:
            value = "bogus"

        network, server = wired_server
        with pytest.raises(ProtocolError):
            network.send("c0", "s0", _BogusType(), {})

    def test_end_transaction_without_coordinator_role_rejected(self, wired_server):
        network, server = wired_server
        with pytest.raises(ProtocolError):
            network.send("c0", "s0", MessageType.END_TRANSACTION, {"transaction": None})


class TestAuditMessages:
    def test_audit_log_request_returns_copy(self, wired_server):
        network, server = wired_server
        response = network.send("auditor" if False else "c0", "s0", MessageType.AUDIT_LOG_REQUEST, {})
        log_copy = response["log"]
        assert len(log_copy) == 0
        log_copy.truncate(0)
        assert len(server.log) == 0

    def test_audit_vo_request_latest(self, wired_server):
        network, server = wired_server
        response = network.send(
            "c0", "s0", MessageType.AUDIT_VO_REQUEST, {"item_id": "a", "at": None}
        )
        assert response["ok"]
        assert verify_inclusion("a", response["value"], response["vo"], response["root"])

    def test_audit_vo_request_unknown_item(self, wired_server):
        network, _ = wired_server
        response = network.send(
            "c0", "s0", MessageType.AUDIT_VO_REQUEST, {"item_id": "zz", "at": None}
        )
        assert not response["ok"]


class TestFaultWiring:
    def test_set_faults_applies_to_both_layers(self, wired_server):
        from repro.server.faults import FaultPlan

        _, server = wired_server
        server.set_faults([FaultPlan("skip-validation", "s0")])
        assert server.faults.name == "skip-validation"
        assert server.execution.faults is server.faults
        assert server.commitment.faults is server.faults

    def test_a_plan_for_another_server_is_refused(self, wired_server):
        from repro.common.errors import ConfigurationError
        from repro.server.faults import FaultPlan

        _, server = wired_server
        with pytest.raises(ConfigurationError, match="targets 's1'"):
            server.set_faults([FaultPlan("skip-validation", "s1")])
        assert server.faults.name == "honest"

    def test_snapshot(self, wired_server):
        _, server = wired_server
        assert server.snapshot() == {"a": 1, "b": 2}
