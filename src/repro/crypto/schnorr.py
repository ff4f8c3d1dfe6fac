"""Schnorr digital signatures over secp256k1.

These are the "public-key signatures" of Section 2.1: the author signs a
message with her secret key; anyone holding the public key can verify the
signature; forging a signature without the secret key is computationally
infeasible.

The scheme is the classic Schnorr identification protocol made
non-interactive with the Fiat-Shamir transform:

* signing:  pick nonce ``k``, compute ``R = k*G``,
  ``e = H(R || P || m)``, ``s = k + e*x  (mod n)``; the signature is ``(R, s)``.
* verifying: accept iff ``encode(s*G - e*P) == encode(R)``.  Comparing
  encodings rather than points lets the byte-level path
  (:func:`schnorr_verify_encoded`, one per envelope) skip decompressing ``R``
  -- a modular square root -- and still reject exactly what decompression
  rejects: the left side is always the canonical encoding of a curve point,
  so a bad prefix, an off-curve or an unreduced ``x`` can never equal it.

Nonces are derived deterministically (RFC 6979 style, via HMAC-free hashing
of the secret key and message) so signing never depends on an external
entropy source -- important for reproducible protocol runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.group import CURVE_ORDER, Point, fused_multiply_sum, generator_multiply
from repro.crypto.hashing import hash_concat, hash_to_int
from repro.crypto.keys import KeyPair, PrivateKey, PublicKey


@dataclass(frozen=True, slots=True)
class SchnorrSignature:
    """A Schnorr signature ``(R, s)``: a nonce commitment point and a scalar."""

    nonce_point: Point
    scalar: int

    def encode(self) -> bytes:
        """Canonical byte encoding used when signatures are embedded in messages."""
        return self.nonce_point.encode() + self.scalar.to_bytes(32, "big")


def _challenge(nonce_bytes: bytes, public_key: PublicKey, message: bytes) -> int:
    """Fiat-Shamir challenge ``e = H(R || P || m)`` reduced into the scalar field."""
    return hash_to_int(hash_concat(nonce_bytes, public_key.encode(), message), CURVE_ORDER)


def _deterministic_nonce(private: PrivateKey, message: bytes) -> int:
    """Derive a per-message nonce from the secret key and the message."""
    secret_bytes = private.scalar.to_bytes(32, "big")
    nonce = hash_to_int(hash_concat(b"schnorr-nonce", secret_bytes, message), CURVE_ORDER)
    return nonce


def schnorr_sign(keypair: KeyPair, message: bytes) -> SchnorrSignature:
    """Sign ``message`` with ``keypair`` and return the signature.

    The challenge binds the public key, which the key pair already holds;
    deriving it from the secret again would double the cost of signing.
    """
    nonce = _deterministic_nonce(keypair.private, message)
    nonce_point = generator_multiply(nonce)
    challenge = _challenge(nonce_point.encode(), keypair.public, message)
    scalar = (nonce + challenge * keypair.secret_scalar) % CURVE_ORDER
    return SchnorrSignature(nonce_point, scalar)


def schnorr_verify_encoded(
    public: PublicKey, message: bytes, nonce_bytes: bytes, scalar: int
) -> bool:
    """Verify ``(R, s)`` with ``R`` given as its encoding: one fused multiply."""
    if not 0 <= scalar < CURVE_ORDER:
        return False
    challenge = _challenge(nonce_bytes, public, message)
    # Public keys recur across messages, so -e*P goes through a window table.
    return fused_multiply_sum(scalar, -challenge, (public.point,)).encode() == nonce_bytes


def schnorr_verify(public: PublicKey, message: bytes, signature: SchnorrSignature) -> bool:
    """Return True iff ``signature`` is a valid signature of ``message`` under ``public``."""
    if not isinstance(signature, SchnorrSignature):
        return False
    if not signature.nonce_point.is_on_curve():
        return False
    return schnorr_verify_encoded(
        public, message, signature.nonce_point.encode(), signature.scalar
    )
