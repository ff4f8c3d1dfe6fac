"""Cryptographic substrate used by Fides and TFCommit.

Everything here is implemented from scratch on top of the standard library
(``hashlib``/``hmac``) because the reproduction environment has no external
crypto packages:

* :mod:`repro.crypto.group` -- the secp256k1 elliptic-curve group.
* :mod:`repro.crypto.keys` / :mod:`repro.crypto.schnorr` -- public-key
  (Schnorr) digital signatures (paper Section 2.1).
* :mod:`repro.crypto.cosi` -- Collective Signing, i.e. two-round aggregated
  Schnorr multisignatures (paper Section 2.2).
* :mod:`repro.crypto.merkle` -- Merkle Hash Trees and Verification Objects
  (paper Section 2.3).
* :mod:`repro.crypto.signing` -- a pluggable per-message signing-scheme
  abstraction (real Schnorr vs. a fast keyed-hash MAC used only in large
  benchmark sweeps).
"""

from repro.crypto.hashing import sha256, hash_concat, hash_object
from repro.crypto.group import Point, GENERATOR, CURVE_ORDER
from repro.crypto.keys import KeyPair, PrivateKey, PublicKey, generate_keypair
from repro.crypto.schnorr import SchnorrSignature, schnorr_sign, schnorr_verify
from repro.crypto.cosi import (
    CollectiveSignature,
    cosi_verify,
    identify_faulty_signers,
)
from repro.crypto.merkle import MerkleTree, VerificationObject, verify_inclusion
from repro.crypto.signing import (
    HashSigningScheme,
    SchnorrSigningScheme,
    SigningScheme,
    make_signing_scheme,
)

__all__ = [
    "CURVE_ORDER",
    "CollectiveSignature",
    "GENERATOR",
    "HashSigningScheme",
    "KeyPair",
    "MerkleTree",
    "Point",
    "PrivateKey",
    "PublicKey",
    "SchnorrSignature",
    "SchnorrSigningScheme",
    "SigningScheme",
    "VerificationObject",
    "cosi_verify",
    "generate_keypair",
    "hash_concat",
    "hash_object",
    "identify_faulty_signers",
    "make_signing_scheme",
    "schnorr_sign",
    "schnorr_verify",
    "sha256",
    "verify_inclusion",
]
