"""Tests for the signed message bus."""

from __future__ import annotations

import pytest

from repro.common.encoding import canonical_encode
from repro.common.errors import ConfigurationError, SignatureError
from repro.crypto.keys import keypair_for
from repro.net.message import Envelope, MessageType
from repro.net.latency import ConstantLatency
from repro.net.network import Network


@pytest.fixture
def network():
    net = Network(latency=ConstantLatency(0.001))
    received = []

    def handler(envelope):
        received.append(envelope)
        return {"echo": envelope.payload, "type": envelope.message_type.value}

    net.register("server", keypair_for("server"), handler)
    net.register_observer("client", keypair_for("client"))
    net.received = received
    return net


class TestDelivery:
    def test_send_returns_handler_response(self, network):
        response = network.send("client", "server", MessageType.READ, {"item": "x"})
        assert response["echo"] == {"item": "x"}
        assert response["type"] == "read"

    def test_receiver_sees_verified_envelope(self, network):
        network.send("client", "server", MessageType.READ, {"item": "x"})
        envelope = network.received[0]
        assert envelope.sender == "client"
        assert network.verify_envelope(envelope)

    def test_unknown_recipient_raises(self, network):
        with pytest.raises(ConfigurationError):
            network.send("client", "nobody", MessageType.READ, {})

    def test_unknown_sender_raises(self, network):
        with pytest.raises(ConfigurationError):
            network.send("stranger", "server", MessageType.READ, {})

    def test_broadcast_collects_all_responses(self, network):
        network.register("server2", keypair_for("server2"), lambda env: {"ok": True})
        responses = network.broadcast("client", ["server", "server2"], MessageType.READ, {})
        assert set(responses) == {"server", "server2"}

    def test_stats_accumulate(self, network):
        network.send("client", "server", MessageType.READ, {})
        network.send("client", "server", MessageType.WRITE, {})
        assert network.stats.messages_sent == 2
        assert network.stats.per_type == {"read": 1, "write": 1}
        assert network.stats.simulated_delay == pytest.approx(0.002)


class TestSignatures:
    def test_forged_envelope_rejected(self, network):
        # Sign one payload, then try to deliver a different payload with it.
        honest = network.sign_envelope(
            Envelope("client", "server", MessageType.READ, {"item": "x"})
        )
        forged = Envelope(
            "client", "server", MessageType.READ, {"item": "y"}, signature=honest.signature
        )
        with pytest.raises(SignatureError):
            network.send("client", "server", MessageType.READ, {"item": "y"}, presigned=forged)
        assert network.stats.messages_rejected == 1

    def test_unsigned_envelope_rejected(self, network):
        bare = Envelope("client", "server", MessageType.READ, {"item": "x"})
        with pytest.raises(SignatureError):
            network.send("client", "server", MessageType.READ, {"item": "x"}, presigned=bare)

    def test_impersonation_rejected(self, network):
        # An envelope claiming to come from "server" but signed by "client".
        network.register_observer("mallory", keypair_for("mallory"))
        envelope = Envelope("server", "server", MessageType.READ, {"item": "x"})
        scheme = network.signing_scheme
        forged = envelope.with_signature(
            scheme.sign_bytes(
                keypair_for("mallory"), canonical_encode(envelope.signed_content())
            )
        )
        with pytest.raises(SignatureError):
            network.send("server", "server", MessageType.READ, {"item": "x"}, presigned=forged)

    def test_presigned_for_another_recipient_rejected(self, network):
        """The signature covers the recipient: what was signed for one server
        must not be deliverable to another."""
        other = []
        network.register("server2", keypair_for("server2"), other.append)
        signed = network.sign_envelope(
            Envelope("client", "server", MessageType.WRITE, {"item": "x"})
        )
        with pytest.raises(SignatureError):
            network.send("client", "server2", MessageType.WRITE, {"item": "x"}, presigned=signed)
        assert other == [] and network.received == []
        assert network.stats.messages_rejected == 1
        assert network.stats.messages_sent == 0

    def test_presigned_as_another_type_rejected(self, network):
        """The signature covers the type: a signed WRITE is not a READ."""
        signed = network.sign_envelope(
            Envelope("client", "server", MessageType.WRITE, {"item": "x"})
        )
        with pytest.raises(SignatureError):
            network.send("client", "server", MessageType.READ, {"item": "x"}, presigned=signed)
        assert network.received == []
        assert network.stats.messages_rejected == 1
        assert network.stats.per_type == {}
        # Delivered as what it was signed as, it is accepted.
        network.send("client", "server", MessageType.WRITE, {"item": "x"}, presigned=signed)
        assert [envelope.message_type for envelope in network.received] == [MessageType.WRITE]
        assert network.stats.per_type == {"write": 1}

    def test_public_key_directory(self, network):
        directory = network.public_key_directory()
        assert set(directory) == {"server", "client"}
        assert network.public_key_of("server") == directory["server"]

    def test_public_key_of_unknown(self, network):
        with pytest.raises(ConfigurationError):
            network.public_key_of("nobody")
