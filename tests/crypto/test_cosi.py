"""Tests for Collective Signing (paper Section 2.2, Lemma 4)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ProtocolError
from repro.crypto import group
from repro.crypto.cosi import (
    CollectiveSignature,
    aggregate_points,
    aggregate_scalars,
    compute_challenge,
    cosi_verify,
    cosign,
    identify_faulty_signers,
    verify_partial,
    witness_commitment,
    witness_response,
)
from repro.crypto.group import CURVE_ORDER, GENERATOR, INFINITY, point_add, scalar_multiply
from repro.crypto.keys import keypair_for


def make_signers(count: int, seed: int = 0):
    return {f"w{i}": keypair_for(f"w{i}", seed=seed) for i in range(count)}


def public_keys_of(signers):
    return {sid: kp.public for sid, kp in signers.items()}


class TestCoSiRound:
    def test_round_produces_verifiable_signature(self):
        signers = make_signers(4)
        signature = cosign(b"a block digest", signers)
        assert cosi_verify(signature, b"a block digest", public_keys_of(signers))

    def test_signature_bound_to_record(self):
        signers = make_signers(4)
        signature = cosign(b"record A", signers)
        assert not cosi_verify(signature, b"record B", public_keys_of(signers))

    def test_signature_bound_to_signer_keys(self):
        signers = make_signers(4)
        signature = cosign(b"record", signers)
        # Same identities but different key pairs: the signature must not verify.
        other_keys = public_keys_of(make_signers(4, seed=123))
        assert not cosi_verify(signature, b"record", other_keys)

    def test_single_witness_round(self):
        signers = make_signers(1)
        signature = cosign(b"solo", signers)
        assert cosi_verify(signature, b"solo", public_keys_of(signers))

    def test_missing_public_key_fails_verification(self):
        signers = make_signers(3)
        signature = cosign(b"record", signers)
        keys = public_keys_of(signers)
        keys.pop("w0")
        assert not cosi_verify(signature, b"record", keys)

    def test_tampered_challenge_fails(self):
        signers = make_signers(3)
        signature = cosign(b"record", signers)
        forged = CollectiveSignature(
            challenge=(signature.challenge + 1) % CURVE_ORDER,
            response=signature.response,
            signer_ids=signature.signer_ids,
        )
        assert not cosi_verify(forged, b"record", public_keys_of(signers))

    def test_not_a_signature_object(self):
        signers = make_signers(2)
        assert not cosi_verify("garbage", b"record", public_keys_of(signers))

    def test_no_signers_is_refused(self):
        with pytest.raises(ProtocolError):
            cosign(b"record", {})

    @settings(max_examples=8, deadline=None)
    @given(st.binary(min_size=1, max_size=48), st.integers(min_value=1, max_value=5))
    def test_round_verifies_for_arbitrary_records(self, record, count):
        signers = make_signers(count, seed=9)
        signature = cosign(record, signers)
        assert cosi_verify(signature, record, public_keys_of(signers))


#: The oracle's key directory: 32 servers, the most a scaled block's group holds here.
_ORACLE_KEYS = {f"s{index}": keypair_for(f"s{index}", seed=35) for index in range(32)}


def _untabled_signature(record: bytes, signer_ids) -> CollectiveSignature:
    """A valid co-sign for any signer list, a repeated id included, built by hand."""
    nonces = [(7 * index + len(record) + 1) ** 5 % CURVE_ORDER for index in range(len(signer_ids))]
    challenge = compute_challenge(scalar_multiply(sum(nonces), GENERATOR), record)
    secrets = sum(_ORACLE_KEYS[signer].secret_scalar for signer in signer_ids)
    return CollectiveSignature(
        challenge, (sum(nonces) - challenge * secrets) % CURVE_ORDER, tuple(signer_ids)
    )


def _untabled_verdict(signature: CollectiveSignature, record: bytes, public_keys) -> bool:
    """``compute_challenge(s*G + c*sum(P_i), record) == c`` by double-and-add only."""
    total = INFINITY
    for signer in signature.signer_ids:
        if signer not in public_keys:
            return False
        total = point_add(total, scalar_multiply(1, public_keys[signer].point))
    reconstructed = point_add(
        scalar_multiply(signature.response, GENERATOR),
        scalar_multiply(signature.challenge, total),
    )
    return compute_challenge(reconstructed, record) == signature.challenge


class TestAgainstUntabledReference:
    """``cosi_verify`` agrees with a check that shares no code with its tables."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(0, 31), min_size=1, max_size=32, unique=True),
        st.booleans(),
        st.binary(min_size=1, max_size=24),
        st.sampled_from(["none", "record", "response", "drop", "add", "swap", "repeat"]),
        st.integers(0, 31),
        st.booleans(),
    )
    def test_verdicts_agree(self, indices, repeated, record, tamper, other, earned):
        signer_ids = [f"s{index}" for index in sorted(indices)]
        if repeated:
            signer_ids.append(signer_ids[0])
        signature = _untabled_signature(record, signer_ids)
        ids = list(signature.signer_ids)
        response = signature.response
        if tamper == "record":
            record = record + b"!"
        elif tamper == "response":
            response = (response + 1) % CURVE_ORDER
        elif tamper == "drop" and len(ids) > 1:
            ids.pop(other % len(ids))
        elif tamper == "add":
            ids.append(f"s{other}")
        elif tamper == "swap":
            ids[other % len(ids)] = f"s{other}" if f"s{other}" not in ids else "c0"
        elif tamper == "repeat":
            ids.append(ids[other % len(ids)])
        public_keys = {signer: keypair.public for signer, keypair in _ORACLE_KEYS.items()}
        expected = _untabled_verdict(
            CollectiveSignature(signature.challenge, response, tuple(ids)), record, public_keys
        )
        assert expected == (tamper == "none" or (tamper == "drop" and len(ids) == len(signer_ids)))
        with pytest.MonkeyPatch.context() as patch:
            if earned:
                patch.setattr(group, "_TABLE_BUILD_COST", 1)
            # Fresh signature objects, so each check runs the group arithmetic again.
            for _ in range(3):
                forged = CollectiveSignature(signature.challenge, response, tuple(ids))
                assert cosi_verify(forged, record, public_keys) is expected


def _round(signers, record: bytes = b"record", liar: str = ""):
    """The phases of one round: commitments, challenge, and responses (``liar``'s off by one)."""
    nonces = {sid: witness_commitment(kp, record) for sid, kp in signers.items()}
    commitments = {sid: point for sid, (_, point) in nonces.items()}
    challenge = compute_challenge(aggregate_points(commitments.values()), record)
    responses = {
        sid: (witness_response(signers[sid], nonce, challenge) + (sid == liar)) % CURVE_ORDER
        for sid, (nonce, _) in nonces.items()
    }
    return commitments, challenge, responses


class TestCulpritIdentification:
    def test_bad_response_invalidates_signature(self):
        signers = make_signers(4)
        _, challenge, responses = _round(signers, liar="w2")
        signature = CollectiveSignature(
            challenge, aggregate_scalars(responses.values()), tuple(sorted(signers))
        )
        assert not cosi_verify(signature, b"record", public_keys_of(signers))

    def test_identify_faulty_signer(self):
        signers = make_signers(4)
        commitments, challenge, responses = _round(signers, liar="w2")
        culprits = identify_faulty_signers(
            commitments, responses, challenge, public_keys_of(signers)
        )
        assert culprits == ["w2"]

    def test_partial_signature_excluding_culprit_verifies(self):
        signers = make_signers(4)
        commitments, challenge, responses = _round(signers, liar="w1")
        for sid, keypair in signers.items():
            assert verify_partial(
                commitments[sid], responses[sid], challenge, keypair.public
            ) is (sid != "w1")

    def test_missing_response_reported(self):
        signers = make_signers(3)
        commitments, challenge, responses = _round(signers)
        culprits = identify_faulty_signers(
            commitments, {"w0": responses["w0"]}, challenge, public_keys_of(signers)
        )
        assert culprits == ["w1", "w2"]

    def test_honest_round_has_no_culprits(self):
        signers = make_signers(3)
        commitments, challenge, responses = _round(signers)
        assert (
            identify_faulty_signers(commitments, responses, challenge, public_keys_of(signers))
            == []
        )
        assert cosign(b"record", signers) == CollectiveSignature(
            challenge, aggregate_scalars(responses.values()), tuple(sorted(signers))
        )
