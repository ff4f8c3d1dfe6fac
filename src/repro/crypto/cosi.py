"""Collective Signing (CoSi): aggregated Schnorr multisignatures.

Section 2.2 of the paper: a leader produces a record which a group of
witnesses validate and collectively sign in two communication rounds.  The
resulting collective signature has the size and verification cost of a single
Schnorr signature, and it can only verify if *every* witness contributed a
correct response over the *same* record -- the property TFCommit leans on to
make 2PC decisions verifiable.

The four CoSi phases are functions of their inputs; none keeps state:

===================  =====================================================
Announcement         the record (TFCommit: the partial block's
                     ``signing_digest()``, sent in ``GET_VOTE``)
Commitment           ``witness_commitment(keypair, record)``
                     -> ``(v_i, V_i = v_i * G)``
Challenge            ``compute_challenge(aggregate_points(V_i), record)``
                     -> ``c = H(sum V_i || record)``
Response             ``witness_response(keypair, v_i, c)``
                     -> ``r_i = v_i - c*x_i``
(aggregation)        ``CollectiveSignature(c, aggregate_scalars(r_i),
                     signer_ids)``
===================  =====================================================

Which phase may run when, and that a nonce answers one challenge only, is
the protocol's state: the coordinator's ``ROUND_TRANSITIONS``
(``core/rounds.py``) and the cohort's ``COHORT_TRANSITIONS``
(``server/commitment.py``), whose ``RoundState.nonce`` holds ``v_i`` between
the vote and the challenge (DESIGN.md section 10).  :func:`cosign` runs all
four phases in one process, for signers that are all at hand.

Verification recomputes ``X' = R*G + c * sum(P_i)`` and accepts iff
``H(X' || record) == c``.  :func:`identify_faulty_signers` reproduces the
culprit-identification argument of Lemma 4: given the individual commitments
and responses, the partial check ``r_i*G + c*P_i == V_i`` exposes exactly the
witnesses that lied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.common.errors import ProtocolError
from repro.common.wire import SCALAR, STR, list_of, wire_form
from repro.crypto.group import (
    CURVE_ORDER,
    Point,
    aggregate_points,
    fused_multiply_sum,
    generator_multiply,
)
from repro.crypto.hashing import hash_concat, hash_to_int
from repro.crypto.keys import KeyPair, PublicKey


@wire_form(
    ("challenge", SCALAR),
    ("response", SCALAR),
    ("signers", list_of(STR), "signer_ids"),
)
@dataclass(frozen=True)
class CollectiveSignature:
    """A collective signature ``(challenge, response)`` over one record.

    ``signer_ids`` records which participants contributed; verification uses
    their public keys.  The signature binds the record to the full signer set:
    change either and verification fails.
    """

    challenge: int
    response: int
    signer_ids: tuple

    def encode(self) -> bytes:
        """Canonical wire encoding (64 bytes + signer list handled upstream)."""
        return self.challenge.to_bytes(32, "big") + self.response.to_bytes(32, "big")


def _commitment_scalar(keypair: KeyPair, record: bytes) -> int:
    """Deterministically derive the witness's per-record secret ``v_i``.

    Deriving the nonce from the secret key and the record (rather than an
    external RNG) keeps protocol runs reproducible and avoids nonce-reuse
    bugs across distinct records.
    """
    secret_bytes = keypair.secret_scalar.to_bytes(32, "big")
    return hash_to_int(hash_concat(b"cosi-nonce", secret_bytes, record), CURVE_ORDER)


def compute_challenge(aggregate_commitment: Point, record: bytes) -> int:
    """Schnorr challenge ``c = H(X || record)`` (Section 2.2, Challenge phase)."""
    return hash_to_int(hash_concat(aggregate_commitment.encode(), record), CURVE_ORDER)


def aggregate_scalars(scalars: Iterable[int]) -> int:
    """Sum a collection of scalars modulo the curve order."""
    total = 0
    for scalar in scalars:
        total = (total + scalar) % CURVE_ORDER
    return total


def witness_commitment(keypair: KeyPair, record: bytes) -> Tuple[int, Point]:
    """Commitment phase: the witness's nonce ``v_i`` for ``record`` and ``V_i = v_i * G``.

    The caller keeps the nonce until the response phase (a cohort keeps it
    in its round's ``RoundState.nonce``) and must answer at most one
    challenge with it: two responses from one nonce reveal the key.
    """
    nonce = _commitment_scalar(keypair, record)
    return nonce, generator_multiply(nonce)


def witness_response(keypair: KeyPair, nonce: int, challenge: int) -> int:
    """Response phase: ``r_i = v_i - c * x_i (mod n)``."""
    return (nonce - challenge * keypair.secret_scalar) % CURVE_ORDER


def cosign(record: bytes, keypairs: Mapping[str, KeyPair]) -> CollectiveSignature:
    """All four phases in one process: every key in ``keypairs`` co-signs ``record``.

    Used where the signers are at hand (checkpoints, test fixtures); TFCommit
    runs the phases itself because they interleave with 2PC voting.
    """
    if not keypairs:
        raise ProtocolError("cannot co-sign with no signers")
    nonces = {sid: witness_commitment(kp, record) for sid, kp in keypairs.items()}
    challenge = compute_challenge(
        aggregate_points(point for _, point in nonces.values()), record
    )
    return CollectiveSignature(
        challenge=challenge,
        response=aggregate_scalars(
            witness_response(keypairs[sid], nonce, challenge)
            for sid, (nonce, _) in nonces.items()
        ),
        signer_ids=tuple(sorted(keypairs)),
    )


def cosi_verify(
    signature: CollectiveSignature,
    record: bytes,
    public_keys: Dict[str, PublicKey],
) -> bool:
    """Verify a collective signature over ``record``.

    ``public_keys`` must contain the key of every signer listed in the
    signature.  The check is one fixed-base multiplication and ``c`` times
    the signers' summed keys, which goes through each signer's own key table:
    one accumulation per signer.  A signer set that recurs often enough earns
    a table of its own, and from then on its verification costs that of a
    single Schnorr signature regardless of the number of signers -- the
    property highlighted in Section 2.2 (see ``crypto/group.py``).
    """
    if not isinstance(signature, CollectiveSignature):
        return False
    try:
        key_points = tuple(public_keys[s].point for s in signature.signer_ids)
    except KeyError:
        return False
    # Verification is a pure function of (signature, record, signer keys).
    # In the scaled deployment every server verifies the same Block object's
    # co-sign on ordered delivery, so memoise the last verdict per signature
    # instance; a different record or key set misses the cache and re-runs
    # the full check.
    record_bytes = bytes(record)
    cache_key = (record_bytes, key_points)
    cached = signature.__dict__.get("_verify_cache")
    if cached is not None and cached[0] == cache_key:
        return cached[1]
    # R*G + c*sum(P_i) is accumulated through the signers' key tables, or
    # through the signer set's own table once its reuse has paid for one.
    reconstructed = fused_multiply_sum(signature.response, signature.challenge, key_points)
    verdict = compute_challenge(reconstructed, record_bytes) == signature.challenge
    object.__setattr__(signature, "_verify_cache", (cache_key, verdict))
    return verdict


def verify_partial(
    commitment: Point, response: int, challenge: int, public_key: PublicKey
) -> bool:
    """Check one witness's contribution: ``r_i*G + c*P_i == V_i``."""
    return fused_multiply_sum(response, challenge, (public_key.point,)) == commitment


def identify_faulty_signers(
    commitments: Dict[str, Point],
    responses: Dict[str, int],
    challenge: int,
    public_keys: Dict[str, PublicKey],
) -> List[str]:
    """Return the witnesses whose contributions are inconsistent (Lemma 4).

    A witness is faulty if it failed to respond, or if its response does not
    verify against its own commitment and public key.  This is the per-server
    exclusion check the paper describes: "check partial signatures produced by
    excluding one server at a time and detect the precise server without which
    the signature is valid".
    """
    faulty = []
    for witness_id, commitment in commitments.items():
        if witness_id not in responses:
            faulty.append(witness_id)
            continue
        if witness_id not in public_keys:
            faulty.append(witness_id)
            continue
        if not verify_partial(
            commitment, responses[witness_id], challenge, public_keys[witness_id]
        ):
            faulty.append(witness_id)
    return sorted(faulty)
