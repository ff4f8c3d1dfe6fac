"""Public/secret key pairs for servers and clients.

Section 3.1: "Servers and clients are uniquely identifiable using their
public keys".  A :class:`KeyPair` owns a secret scalar and the corresponding
public curve point; the :class:`PublicKey` half is what gets shared in the
system directory.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.crypto.group import CURVE_ORDER, Point, generator_multiply


@dataclass(frozen=True)
class PublicKey:
    """A public key: a point on secp256k1."""

    point: Point

    def encode(self) -> bytes:
        """Return the compressed SEC1 encoding of the key."""
        return self.point.encode()

    def fingerprint(self) -> str:
        """Short hex fingerprint, convenient for logging and directories."""
        return hashlib.sha256(self.encode()).hexdigest()[:16]


@dataclass(frozen=True, slots=True)
class PrivateKey:
    """A secret scalar in ``[1, n)`` where ``n`` is the curve order."""

    scalar: int

    def __post_init__(self) -> None:
        if not 1 <= self.scalar < CURVE_ORDER:
            raise ConfigurationError("private key scalar out of range")

    def public_key(self) -> PublicKey:
        """Derive the matching public key ``scalar * G``."""
        return PublicKey(generator_multiply(self.scalar))


@dataclass(frozen=True, slots=True)
class KeyPair:
    """A (secret, public) key pair owned by one participant."""

    private: PrivateKey
    public: PublicKey

    @property
    def secret_scalar(self) -> int:
        return self.private.scalar


def generate_keypair(seed: bytes = None) -> KeyPair:
    """Generate a key pair.

    If ``seed`` is provided the key is derived deterministically from it
    (useful for reproducible test clusters); otherwise a cryptographically
    random key is produced.
    """
    if seed is None:
        scalar = secrets.randbelow(CURVE_ORDER - 1) + 1
    else:
        digest = hashlib.sha256(b"fides-keygen:" + seed).digest()
        scalar = int.from_bytes(digest, "big") % (CURVE_ORDER - 1) + 1
    private = PrivateKey(scalar)
    return KeyPair(private, private.public_key())


def keypair_for(identity: str, seed: int = 0) -> KeyPair:
    """Deterministically derive the key pair of participant ``identity``."""
    return generate_keypair(f"{seed}:{identity}".encode("utf-8"))
