"""Tests for message envelopes."""

from __future__ import annotations

import random

import pytest

from repro.common.encoding import canonical_encode
from repro.crypto.keys import keypair_for
from repro.crypto.signing import make_signing_scheme
from repro.net.message import Envelope, MessageType


class TestEnvelope:
    def test_signed_content_excludes_signature(self):
        envelope = Envelope("a", "b", MessageType.READ, {"x": 1}, signature=b"sig")
        content = envelope.to_wire()["content"]
        assert "signature" not in content
        assert content["sender"] == "a"
        assert content["type"] == "read"

    def test_with_signature_preserves_fields(self):
        envelope = Envelope("a", "b", MessageType.WRITE, {"x": 1})
        signed = envelope.with_signature(b"sig")
        assert signed.signature == b"sig"
        assert signed.payload == {"x": 1}
        assert envelope.signature is None

    def test_to_wire_shape(self):
        wire = Envelope("a", "b", MessageType.GET_VOTE, {"x": 1}, b"s").to_wire()
        assert set(wire) == {"content", "signature"}

    def test_message_types_cover_protocol_phases(self):
        names = {mt.value for mt in MessageType}
        for expected in (
            "begin_transaction",
            "read",
            "write",
            "end_transaction",
            "get_vote",
            "challenge",
            "decision",
            "prepare",
            "commit_decision",
            "audit_log_request",
            "audit_vo_request",
        ):
            assert expected in names


class TestEnvelopeRoundTrips:
    """Seeded-random payloads survive signing, re-wrapping, and wire encoding."""

    @pytest.mark.parametrize("scheme_name", ["hash", "schnorr"])
    @pytest.mark.parametrize("seed", [0, 2020])
    def test_sign_verify_round_trip_over_random_payloads(
        self, random_payload, scheme_name, seed
    ):
        rng = random.Random(seed)
        scheme = make_signing_scheme(scheme_name)
        keypair = keypair_for("s0", seed=99)
        rounds = 6 if scheme_name == "schnorr" else 25  # schnorr is slow
        for i in range(rounds):
            envelope = Envelope(
                "s0", "s1", rng.choice(list(MessageType)), random_payload(rng)
            )
            signature = scheme.sign_bytes(keypair, canonical_encode(envelope.to_wire()["content"]))
            signed = envelope.with_signature(signature)
            assert signed.payload == envelope.payload
            assert scheme.verify_bytes(
                keypair.public, canonical_encode(signed.to_wire()["content"]), signed.signature
            )

    @pytest.mark.parametrize("seed", [1, 7, 2020])
    def test_signed_content_is_canonically_stable(self, random_payload, seed):
        rng = random.Random(seed)
        for _ in range(30):
            payload = random_payload(rng)
            first = Envelope("a", "b", MessageType.READ, payload)
            second = Envelope("a", "b", MessageType.READ, payload)
            assert canonical_encode(first.to_wire()["content"]) == canonical_encode(
                second.to_wire()["content"]
            )

    @pytest.mark.parametrize("seed", [3])
    def test_wire_form_carries_payload_and_signature(self, random_payload, seed):
        rng = random.Random(seed)
        for _ in range(20):
            payload = random_payload(rng)
            wire = Envelope("a", "b", MessageType.GET_VOTE, payload, b"sig").to_wire()
            assert wire["content"]["payload"] == payload
            assert wire["signature"] == b"sig"
