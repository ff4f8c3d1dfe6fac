"""Tests for the database server's message dispatch."""

from __future__ import annotations

import pytest

from repro.common.errors import ProtocolError
from repro.common.timestamps import Timestamp
from repro.crypto.keys import keypair_for
from repro.crypto.merkle import verify_inclusion
from repro.net.forms import (
    MESSAGES,
    AuditLogRequest,
    AuditVoRequest,
    BeginTxn,
    EndTxn,
    ReadItem,
    Refusal,
    StateRequest,
    WriteItem,
    read_reply,
)
from repro.net.latency import ConstantLatency
from repro.net.message import MessageType
from repro.net.network import Network
from repro.obs import Observability
from repro.server.server import DatabaseServer
from repro.sim.clock import VirtualClock
from repro.sim.context import SimContext
from repro.txn.operations import ReadOp, WriteOp
from repro.txn.transaction import Transaction, WriteSetEntry


@pytest.fixture
def wired_server():
    network = Network(SimContext(), latency=ConstantLatency(0.0001))
    server = DatabaseServer(
        "s0", keypair_for("s0"), {"a": 1, "b": 2}, VirtualClock(), Observability(), ["s0"]
    )
    server.attach(network)
    network.register_observer("c0", keypair_for("c0"))
    return network, server


def _end_txn(commit_ts=Timestamp(5, "c0")) -> EndTxn:
    txn = Transaction("t1", "c0", Timestamp(5, "c0"), [], [WriteSetEntry("a", 9)])
    return EndTxn(txn, commit_ts)


def ask(network, message_type, request):
    """``c0`` sends ``request`` to ``s0`` and reads the reply as its row declares."""
    data = network.send("c0", "s0", message_type, request)
    return read_reply(message_type, "s0", data) if MESSAGES[message_type].reply else data


class TestExecutionMessages:
    def test_begin_read_write_flow(self, wired_server):
        network, server = wired_server
        begun = ask(network, MessageType.BEGIN_TRANSACTION, BeginTxn("t1", "c0"))
        assert not isinstance(begun, Refusal)
        read = ask(network, MessageType.READ, ReadItem("t1", "a"))
        assert read.value == 1
        write = ask(network, MessageType.WRITE, WriteItem("t1", "a", 5))
        assert not isinstance(write, Refusal) and write.old.value == 1
        # Writes stay buffered until the commit protocol applies them.
        assert server.store.read("a").value == 1

    def test_client_messages_are_archived(self, wired_server):
        network, server = wired_server
        ask(network, MessageType.BEGIN_TRANSACTION, BeginTxn("t1", "c0"))
        ask(network, MessageType.READ, ReadItem("t1", "a"))
        assert len(server.execution._client_message_log) == 2

    def test_unknown_message_type_rejected(self, wired_server):
        # Every real MessageType member has a row and a handler
        # (tests/net/test_forms.py), so an undispatched type has to be faked.
        class _BogusType:
            value = "bogus"

        network, server = wired_server
        with pytest.raises(ProtocolError):
            network.send("c0", "s0", _BogusType(), {})

    def test_end_transaction_without_coordinator_role_rejected(self, wired_server):
        network, server = wired_server
        with pytest.raises(ProtocolError):
            network.send("c0", "s0", MessageType.END_TRANSACTION, _end_txn())


class TestTheArchiveEndsAtACheckpoint:
    """A server archives signed client requests to defend itself against a
    falsified blame; a checkpoint drops them with the blocks it covers."""

    def test_a_checkpoint_drops_the_requests_of_the_transactions_it_covers(
        self, small_system
    ):
        for server_id in small_system.servers:
            item = small_system.shard_map.items_of(server_id)[0]
            small_system.run_transaction([ReadOp(item), WriteOp(item, 5)])
        covered = {
            txn.txn_id for block in small_system.server("s0").log for txn in block.transactions
        }
        # A transaction still running when the checkpoint is taken is in no block.
        client = small_system.client(1)
        running = client.begin()
        for server_id in small_system.servers:
            client.read(running, small_system.shard_map.items_of(server_id)[1])
        archives = {
            server_id: server.execution._client_message_log
            for server_id, server in small_system.servers.items()
        }
        assert all(
            any(envelope.payload.txn_id in covered for envelope in archive)
            for archive in archives.values()
        )

        small_system.create_checkpoint()

        for server in small_system.servers.values():
            archive = server.execution._client_message_log
            assert [envelope.payload.txn_id for envelope in archive] == [
                running.txn_id,
                running.txn_id,
            ]
            assert all(small_system.network.verify_envelope(envelope) for envelope in archive)

    def test_every_archived_request_names_its_transaction(self, wired_server):
        network, server = wired_server
        ask(network, MessageType.BEGIN_TRANSACTION, BeginTxn("t1", "c0"))
        ask(network, MessageType.READ, ReadItem("t1", "a"))
        ask(network, MessageType.WRITE, WriteItem("t1", "a", 5))
        with pytest.raises(ProtocolError):
            network.send("c0", "s0", MessageType.END_TRANSACTION, _end_txn())
        archive = server.execution._client_message_log
        assert [envelope.message_type for envelope in archive] == [
            MessageType.BEGIN_TRANSACTION,
            MessageType.READ,
            MessageType.WRITE,
            MessageType.END_TRANSACTION,
        ]
        assert {envelope.payload.txn_id for envelope in archive} == {"t1"}


class TestSignedButUnreadFields:
    """Two request fields used to be signed by the client and read by nobody."""

    def test_a_client_cannot_open_a_transaction_as_another(self, wired_server):
        network, server = wired_server
        network.register_observer("c1", keypair_for("c1"))
        data = network.send("c1", "s0", MessageType.BEGIN_TRANSACTION, BeginTxn("c0-txn-77", "c0"))
        refusal = read_reply(MessageType.BEGIN_TRANSACTION, "s0", data)
        assert isinstance(refusal, Refusal) and "as c0" in refusal.reason
        assert server.execution._active == {}

    def test_the_outer_commit_timestamp_must_be_the_transactions(self, wired_server):
        network, server = wired_server
        server.set_coordinator_role(object())  # never reached
        refusal = ask(network, MessageType.END_TRANSACTION, _end_txn(Timestamp(6, "c0")))
        assert isinstance(refusal, Refusal) and "commit timestamp" in refusal.reason


class TestMalformedRequests:
    """A payload that is not its row's request form is refused in one place,
    ``DatabaseServer.handle``, before any handler subscripts or coerces it:
    ``STATE_REQUEST {}`` and a ``CHALLENGE`` without ``challenge`` used to
    raise ``KeyError`` out of the handler, ``NEW_VIEW`` with ``"view": "1"`` or
    ``2.9`` was coerced by ``int()`` and installed."""

    @pytest.mark.parametrize("malformed", ["a dict", "none", "another row's form"])
    @pytest.mark.parametrize("message_type", MessageType, ids=lambda m: m.value)
    def test_every_message_type_refuses_what_is_not_its_form(
        self, wired_server, message_type, malformed
    ):
        network, server = wired_server
        other = StateRequest(0) if MESSAGES[message_type].request is not StateRequest else _end_txn()
        payload = {
            "a dict": {"block": None, "view": "1", "from_height": "0"},
            "none": None,
            "another row's form": other,
        }[malformed]
        refusal = Refusal.from_wire(network.send("c0", "s0", message_type, payload))
        assert refusal.server_id == "s0" and MESSAGES[message_type].request.__name__ in refusal.reason
        assert server.commitment.pending_round_count() == 0 and len(server.log) == 0
        assert server.commitment.current_view(None) == 0

    def test_the_probes_that_used_to_raise_or_be_coerced(self, wired_server):
        network, server = wired_server
        for message_type, payload in [
            (MessageType.STATE_REQUEST, {}),
            (MessageType.STATE_REQUEST, {"from_height": "0"}),
            (MessageType.CHALLENGE, {"block": None}),
            (MessageType.NEW_VIEW, {"group": None, "deposed": "-", "view": "1"}),
            (MessageType.NEW_VIEW, {"group": None, "deposed": "-", "view": 2.9}),
        ]:
            assert Refusal.from_wire(network.send("c0", "s0", message_type, payload)).reason
        assert server.commitment.current_view(None) == 0


class TestAuditMessages:
    def test_audit_log_request_returns_copy(self, wired_server):
        network, server = wired_server
        response = ask(network, MessageType.AUDIT_LOG_REQUEST, AuditLogRequest())
        log_copy = response["log"]
        assert len(log_copy) == 0
        log_copy.truncate(0)
        assert len(server.log) == 0

    def test_audit_vo_request_latest(self, wired_server):
        network, server = wired_server
        inclusion = ask(network, MessageType.AUDIT_VO_REQUEST, AuditVoRequest("a"))
        assert verify_inclusion("a", inclusion.value, inclusion.vo, server.store.merkle_root())

    def test_audit_vo_request_unknown_item(self, wired_server):
        network, _ = wired_server
        refusal = ask(network, MessageType.AUDIT_VO_REQUEST, AuditVoRequest("zz"))
        assert refusal.reason == "item not stored here"


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
