"""Pluggable per-message signing schemes.

Every message exchanged in Fides is "digitally signed by the sender and
verified by the receiver" (Section 3.1).  Two interchangeable schemes are
provided behind the :class:`SigningScheme` interface:

* :class:`SchnorrSigningScheme` -- real public-key Schnorr signatures
  (the default; used by all tests and examples).
* :class:`HashSigningScheme` -- a keyed-hash MAC standing in for a signature.
  This is a *benchmark-only* substitution (documented in DESIGN.md): it keeps
  very large parameter sweeps tractable in pure Python while preserving the
  protocol's message flow.  It is not unforgeable against other key holders,
  so it is never used for block co-signing, which always uses real
  Schnorr/CoSi.

A scheme signs bytes: the caller (the network layer) canonically encodes an
envelope's signed content once and uses the same bytes to sign, to verify and
to meter the message's size.
"""

from __future__ import annotations

import hashlib
import hmac
from abc import ABC, abstractmethod

from repro.common.errors import ConfigurationError
from repro.common.wire import kept
from repro.crypto.keys import KeyPair, PublicKey
from repro.crypto.schnorr import schnorr_sign, schnorr_verify_encoded


class SigningScheme(ABC):
    """Interface for per-message authentication, over already-encoded bytes."""

    #: Human-readable name (matches ``SystemConfig.message_signing``).
    name: str = "abstract"

    @abstractmethod
    def sign_bytes(self, keypair: KeyPair, message: bytes) -> bytes:
        """Return a signature over already-encoded ``message`` bytes."""

    @abstractmethod
    def verify_bytes(self, public: PublicKey, message: bytes, signature: bytes) -> bool:
        """Return True iff ``signature`` authenticates ``message`` under ``public``."""


class SchnorrSigningScheme(SigningScheme):
    """Real Schnorr public-key signatures (Section 2.1)."""

    name = "schnorr"

    def sign_bytes(self, keypair: KeyPair, message: bytes) -> bytes:
        return schnorr_sign(keypair, message).encode()

    def verify_bytes(self, public: PublicKey, message: bytes, signature: bytes) -> bool:
        if not isinstance(signature, (bytes, bytearray)) or len(signature) != 65:
            return False
        blob = bytes(signature)
        return schnorr_verify_encoded(
            public, message, blob[:33], int.from_bytes(blob[33:], "big")
        )


@kept
def _mac_key(public: PublicKey) -> bytes:
    """The MAC key of ``public``'s holder, derived once per key object.

    It stays with the :class:`PublicKey` it was derived from (a frozen
    value: another key is another object) and so lives as long as the
    directory entry or key pair that holds it.
    """
    return hashlib.sha256(b"fides-mac:" + public.encode()).digest()


class HashSigningScheme(SigningScheme):
    """Keyed-hash MAC (HMAC-SHA-256) standing in for a public-key signature.

    The MAC key is derived from the signer's *public* key so any participant
    can verify; this trades unforgeability for speed and is therefore only
    enabled for benchmark sweeps (see DESIGN.md substitution table).
    """

    name = "hash"

    def sign_bytes(self, keypair: KeyPair, message: bytes) -> bytes:
        return hmac.digest(_mac_key(keypair.public), message, "sha256")

    def verify_bytes(self, public: PublicKey, message: bytes, signature: bytes) -> bool:
        if not isinstance(signature, (bytes, bytearray)):
            return False
        return hmac.compare_digest(hmac.digest(_mac_key(public), message, "sha256"), signature)


_SCHEMES = {
    SchnorrSigningScheme.name: SchnorrSigningScheme,
    HashSigningScheme.name: HashSigningScheme,
}


def make_signing_scheme(name: str) -> SigningScheme:
    """Instantiate the signing scheme registered under ``name``."""
    try:
        return _SCHEMES[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown signing scheme {name!r}; available: {sorted(_SCHEMES)}"
        ) from None
