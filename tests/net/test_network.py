"""Tests for the signed message bus."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError, SignatureError
from repro.crypto.keys import keypair_for
from repro.net.message import Envelope, MessageType
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.sim.context import SimContext


@pytest.fixture
def network():
    sim = SimContext()
    net = Network(sim, latency=ConstantLatency(0.001))
    received = []

    def handler(envelope):
        received.append(envelope)
        return {"echo": envelope.payload, "type": envelope.message_type.value}

    net.register("server", keypair_for("server"), handler)
    net.register_observer("client", keypair_for("client"))
    net.received = received
    net.metrics = sim.obs.metrics
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

    def test_broadcast_skips_a_recipient_that_is_down(self, network):
        network.register("server2", keypair_for("server2"), lambda env: {"ok": True})
        network.unregister("server2")
        responses = network.broadcast("client", ["server", "server2"], MessageType.READ, {})
        assert set(responses) == {"server"}
        assert len(network.received) == 1

    def test_the_registry_counts_each_delivery(self, network):
        network.send("client", "server", MessageType.READ, {})
        network.send("client", "server", MessageType.WRITE, {})
        metrics = network.metrics
        assert metrics.counter_value("net.messages") == 2
        assert metrics.breakdown("net.messages") == {"read": 1, "write": 1}
        assert metrics.breakdown("net.delivered") == {"server": 2}
        assert metrics.counter_value("net.delay_s") == pytest.approx(0.002)
        assert sum(metrics.breakdown("net.bytes").values()) == metrics.counter_value(
            "net.bytes_total"
        )


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
        assert network.metrics.counter_value("net.rejected") == 1

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
            scheme.sign_bytes(keypair_for("mallory"), envelope.content_bytes())
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
        assert network.metrics.counter_value("net.rejected") == 1
        assert network.metrics.counter_value("net.messages") == 0

    def test_presigned_as_another_type_rejected(self, network):
        """The signature covers the type: a signed WRITE is not a READ."""
        signed = network.sign_envelope(
            Envelope("client", "server", MessageType.WRITE, {"item": "x"})
        )
        with pytest.raises(SignatureError):
            network.send("client", "server", MessageType.READ, {"item": "x"}, presigned=signed)
        assert network.received == []
        assert network.metrics.counter_value("net.rejected") == 1
        assert network.metrics.breakdown("net.messages") == {}
        # Delivered as what it was signed as, it is accepted.
        network.send("client", "server", MessageType.WRITE, {"item": "x"}, presigned=signed)
        assert [envelope.message_type for envelope in network.received] == [MessageType.WRITE]
        assert network.metrics.breakdown("net.messages") == {"write": 1}

    def test_public_key_directory(self, network):
        directory = network.public_key_directory()
        assert set(directory) == {"server", "client"}

    def test_an_envelope_from_outside_the_directory_does_not_verify(self, network):
        envelope = Envelope("nobody", "server", MessageType.READ, {"item": "x"})
        signed = envelope.with_signature(
            network.signing_scheme.sign_bytes(keypair_for("nobody"), envelope.content_bytes())
        )
        assert "nobody" not in network.public_key_directory()
        assert not network.verify_envelope(signed)
        with pytest.raises(ConfigurationError):
            network.sign_envelope(envelope)


class TestAnUnknownRecipientGetsNoLink:
    """An envelope names any recipient it likes; only those in the key
    directory get a link record."""

    def test_forged_envelopes_to_made_up_recipients_neither_verify_nor_grow_the_table(
        self, network
    ):
        honest = network.sign_envelope(
            Envelope("client", "server", MessageType.END_TRANSACTION, {"txn": 1})
        )
        assert network.verify_envelope(honest)
        links = len(network._links)
        for index in range(5000):
            forged = Envelope(
                "client", f"ghost-{index}", MessageType.END_TRANSACTION, {"txn": 1},
                signature=honest.signature,
            )
            assert not network.verify_envelope(forged)
        # Not even when the sender's own key signed it.
        stray = Envelope("client", "nobody", MessageType.END_TRANSACTION, {"txn": 1})
        stray = stray.with_signature(
            network.signing_scheme.sign_bytes(keypair_for("client"), stray.content_bytes())
        )
        assert not network.verify_envelope(stray)
        assert len(network._links) == links

    def test_send_and_sign_refuse_one_before_building_its_link(self, network):
        links = len(network._links)
        with pytest.raises(ConfigurationError):
            network.send("client", "nobody", MessageType.READ, {})
        with pytest.raises(ConfigurationError):
            network.sign_envelope(Envelope("client", "nobody", MessageType.READ, {}))
        assert len(network._links) == links
        assert network.metrics.counter_value("crypto.envelope_sign.ops") == 0
