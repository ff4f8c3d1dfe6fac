"""Hash utilities.

Fides relies on one-way, collision-resistant hash functions for Merkle trees,
block hash pointers, and Schnorr challenges (Sections 2.2-2.3).  We use
SHA-256 throughout.  All helpers accept either raw bytes or objects that can
be run through :func:`repro.common.encoding.canonical_encode`.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.common.encoding import canonical_encode

#: Digest of the empty string; used as the "previous hash" of the genesis block.
EMPTY_HASH = hashlib.sha256(b"").digest()


def sha256(data: bytes) -> bytes:
    """Return the SHA-256 digest of ``data``."""
    return hashlib.sha256(data).digest()


def hash_concat(*parts: bytes) -> bytes:
    """Hash the concatenation of ``parts`` with unambiguous length prefixes.

    Plain concatenation (``h(a || b)``) is ambiguous -- ``("ab", "c")`` and
    ``("a", "bc")`` would collide -- so every part is length-prefixed first.
    """
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(len(part).to_bytes(8, "big"))
        hasher.update(part)
    return hasher.digest()


def hash_object(obj: Any) -> bytes:
    """Canonically encode ``obj`` and return its SHA-256 digest."""
    return sha256(canonical_encode(obj))


def hash_to_int(data: bytes, modulus: int) -> int:
    """Map ``data`` to an integer in ``[1, modulus)`` via SHA-256.

    Used to derive Schnorr challenges from hashed material.  The result is
    never zero so a challenge can always be inverted / used as a scalar.
    """
    value = int.from_bytes(sha256(data), "big") % modulus
    return value or 1
