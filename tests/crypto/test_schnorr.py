"""Tests for Schnorr digital signatures (paper Section 2.1)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keys import generate_keypair, keypair_for
from repro.crypto.schnorr import SchnorrSignature, schnorr_sign, schnorr_verify


@pytest.fixture(scope="module")
def keypair():
    return keypair_for("alice", seed=1)


@pytest.fixture(scope="module")
def other_keypair():
    return keypair_for("bob", seed=1)


class TestSchnorrSignatures:
    def test_sign_verify_roundtrip(self, keypair):
        signature = schnorr_sign(keypair, b"a message")
        assert schnorr_verify(keypair.public, b"a message", signature)

    def test_modified_message_rejected(self, keypair):
        signature = schnorr_sign(keypair, b"a message")
        assert not schnorr_verify(keypair.public, b"another message", signature)

    def test_wrong_public_key_rejected(self, keypair, other_keypair):
        signature = schnorr_sign(keypair, b"a message")
        assert not schnorr_verify(other_keypair.public, b"a message", signature)

    def test_forgery_requires_secret_key(self, keypair, other_keypair):
        # Bob signing with his own key cannot produce a signature that
        # verifies under Alice's public key (Section 2.1's forgery claim).
        forged = schnorr_sign(other_keypair, b"pay bob")
        assert not schnorr_verify(keypair.public, b"pay bob", forged)

    def test_tampered_scalar_rejected(self, keypair):
        signature = schnorr_sign(keypair, b"msg")
        tampered = SchnorrSignature(signature.nonce_point, signature.scalar + 1)
        assert not schnorr_verify(keypair.public, b"msg", tampered)

    def test_signature_is_deterministic(self, keypair):
        assert schnorr_sign(keypair, b"m") == schnorr_sign(keypair, b"m")

    def test_distinct_messages_get_distinct_nonces(self, keypair):
        sig_a = schnorr_sign(keypair, b"m1")
        sig_b = schnorr_sign(keypair, b"m2")
        assert sig_a.nonce_point != sig_b.nonce_point

    def test_encode_length(self, keypair):
        assert len(schnorr_sign(keypair, b"m").encode()) == 65

    def test_verify_under_a_key_never_seen_before(self):
        # A key's first verification has no window table for it yet: the
        # fused multiply takes its plain double-and-add branch.
        stranger = keypair_for("first-sighting", seed=1)
        signature = schnorr_sign(stranger, b"a message")
        assert schnorr_verify(stranger.public, b"a message", signature)

    def test_non_signature_object_rejected(self, keypair):
        assert not schnorr_verify(keypair.public, b"m", "not a signature")

    @settings(max_examples=10, deadline=None)
    @given(st.binary(min_size=0, max_size=64))
    def test_roundtrip_for_arbitrary_messages(self, message):
        keypair = keypair_for("prop-signer", seed=5)
        signature = schnorr_sign(keypair, message)
        assert schnorr_verify(keypair.public, message, signature)
        assert not schnorr_verify(keypair.public, message + b"x", signature)


class TestKeyGeneration:
    def test_deterministic_from_seed(self):
        assert keypair_for("x", seed=3).public == keypair_for("x", seed=3).public

    def test_different_identities_differ(self):
        assert keypair_for("x", seed=3).public != keypair_for("y", seed=3).public

    def test_random_keys_differ(self):
        assert generate_keypair().public != generate_keypair().public

    def test_public_key_matches_private(self):
        keypair = keypair_for("z", seed=4)
        assert keypair.private.public_key() == keypair.public

    def test_fingerprint_is_short_hex(self):
        fingerprint = keypair_for("z", seed=4).public.fingerprint()
        assert len(fingerprint) == 16
        int(fingerprint, 16)
