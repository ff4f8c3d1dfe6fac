"""Collective Signing (CoSi): aggregated Schnorr multisignatures.

Section 2.2 of the paper: a leader produces a record which a group of
witnesses validate and collectively sign in two communication rounds.  The
resulting collective signature has the size and verification cost of a single
Schnorr signature, and it can only verify if *every* witness contributed a
correct response over the *same* record -- the property TFCommit leans on to
make 2PC decisions verifiable.

The four CoSi phases map onto the API as follows:

===================  =====================================================
Announcement         ``CoSiCoordinator.announce(record)`` /
                     ``CoSiWitness.on_announcement(record)``
Commitment           ``CoSiWitness.commit()`` -> commitment point ``V_i``
Challenge            ``CoSiCoordinator.challenge(commitments)``
                     -> ``c = H(sum V_i || record)``
Response             ``CoSiWitness.respond(challenge)`` -> ``r_i = v_i - c*x_i``
(aggregation)        ``CoSiCoordinator.aggregate(responses)``
                     -> ``CollectiveSignature(challenge, response)``
===================  =====================================================

Verification recomputes ``X' = R*G + c * sum(P_i)`` and accepts iff
``H(X' || record) == c``.  :func:`identify_faulty_signers` reproduces the
culprit-identification argument of Lemma 4: given the individual commitments
and responses, the partial check ``r_i*G + c*P_i == V_i`` exposes exactly the
witnesses that lied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

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


class CoSiWitness:
    """One witness (cohort) in a CoSi round.

    A witness is bound to a single record per round: it remembers the record
    announced to it, commits to a nonce for that record, and refuses to
    respond to a challenge that does not match the record it saw -- this is
    the mechanism that defeats equivocating coordinators (Lemma 5).
    """

    def __init__(self, identity: str, keypair: KeyPair) -> None:
        self.identity = identity
        self.keypair = keypair
        self._record: Optional[bytes] = None
        self._nonce: Optional[int] = None

    def on_announcement(self, record: bytes) -> None:
        """Announcement phase: remember the record to be collectively signed."""
        self._record = bytes(record)
        self._nonce = None

    def commit(self) -> Point:
        """Commitment phase: return the Schnorr commitment ``V_i = v_i * G``."""
        if self._record is None:
            raise ProtocolError(f"witness {self.identity} has no announced record")
        self._nonce = _commitment_scalar(self.keypair, self._record)
        return generator_multiply(self._nonce)

    def respond(self, challenge: int, record: Optional[bytes] = None) -> int:
        """Response phase: return ``r_i = v_i - c * x_i (mod n)``.

        If ``record`` is provided the witness recomputes its nonce for that
        record; a correct witness passes the record it validated, so a
        coordinator that computed the challenge over a *different* record ends
        up with an invalid aggregate signature.
        """
        if self._nonce is None:
            raise ProtocolError(f"witness {self.identity} has not committed")
        if record is not None and bytes(record) != self._record:
            raise ProtocolError(
                f"witness {self.identity} asked to respond for a record it never validated"
            )
        return (self._nonce - challenge * self.keypair.secret_scalar) % CURVE_ORDER


class CoSiCoordinator:
    """The leader of a CoSi round.

    Drives the four phases and aggregates the witnesses' contributions into a
    :class:`CollectiveSignature`.  The coordinator itself is typically also a
    witness (in TFCommit the coordinator co-signs alongside the cohorts); the
    caller simply includes its commitment/response like any other witness's.
    """

    def __init__(self, record: bytes) -> None:
        self.record = bytes(record)
        self._commitments: Dict[str, Point] = {}
        self._responses: Dict[str, int] = {}
        self._challenge: Optional[int] = None

    def announce(self) -> bytes:
        """Announcement phase payload: the record to be signed."""
        return self.record

    def add_commitment(self, witness_id: str, commitment: Point) -> None:
        """Record the commitment ``V_i`` received from ``witness_id``."""
        if not isinstance(commitment, Point) or not commitment.is_on_curve():
            raise ProtocolError(f"invalid commitment from {witness_id}")
        self._commitments[witness_id] = commitment

    def challenge(self) -> int:
        """Challenge phase: aggregate commitments and derive ``c = H(X || record)``."""
        if not self._commitments:
            raise ProtocolError("cannot compute challenge with no commitments")
        aggregate = aggregate_points(self._commitments.values())
        self._challenge = compute_challenge(aggregate, self.record)
        return self._challenge

    @property
    def aggregate_commitment(self) -> Point:
        return aggregate_points(self._commitments.values())

    def add_response(self, witness_id: str, response: int) -> None:
        """Record the Schnorr response received from ``witness_id``."""
        if witness_id not in self._commitments:
            raise ProtocolError(f"response from unknown witness {witness_id}")
        self._responses[witness_id] = response % CURVE_ORDER

    def aggregate(self) -> CollectiveSignature:
        """Aggregate all responses into the final collective signature."""
        if self._challenge is None:
            raise ProtocolError("challenge phase has not run")
        missing = set(self._commitments) - set(self._responses)
        if missing:
            raise ProtocolError(f"missing responses from witnesses: {sorted(missing)}")
        response = aggregate_scalars(self._responses.values())
        return CollectiveSignature(
            challenge=self._challenge,
            response=response,
            signer_ids=tuple(sorted(self._commitments)),
        )

    @property
    def commitments(self) -> Dict[str, Point]:
        return dict(self._commitments)

    @property
    def responses(self) -> Dict[str, int]:
        return dict(self._responses)


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
    witness_id: str,
    commitment: Point,
    response: int,
    challenge: int,
    public_key: PublicKey,
) -> bool:
    """Check one witness's contribution: ``r_i*G + c*P_i == V_i``."""
    reconstructed = fused_multiply_sum(response, challenge, (public_key.point,))
    return reconstructed == commitment and witness_id is not None


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
        ok = verify_partial(
            witness_id, commitment, responses[witness_id], challenge, public_keys[witness_id]
        )
        if not ok:
            faulty.append(witness_id)
    return sorted(faulty)


def run_cosi_round(
    record: bytes,
    witnesses: Sequence[CoSiWitness],
) -> CollectiveSignature:
    """Convenience driver: run a full four-phase CoSi round in one call.

    Used by tests and by the non-distributed fast path; TFCommit drives the
    phases itself because they interleave with 2PC voting.
    """
    coordinator = CoSiCoordinator(record)
    for witness in witnesses:
        witness.on_announcement(coordinator.announce())
        coordinator.add_commitment(witness.identity, witness.commit())
    challenge = coordinator.challenge()
    for witness in witnesses:
        coordinator.add_response(witness.identity, witness.respond(challenge, record))
    return coordinator.aggregate()
