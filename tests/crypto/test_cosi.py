"""Tests for Collective Signing (paper Section 2.2, Lemma 4)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ProtocolError
from repro.crypto import group
from repro.crypto.cosi import (
    CollectiveSignature,
    CoSiCoordinator,
    CoSiWitness,
    compute_challenge,
    cosi_verify,
    identify_faulty_signers,
    run_cosi_round,
    verify_partial,
)
from repro.crypto.group import CURVE_ORDER, GENERATOR, INFINITY, point_add, scalar_multiply
from repro.crypto.keys import keypair_for


def make_witnesses(count: int, seed: int = 0):
    return [CoSiWitness(f"w{i}", keypair_for(f"w{i}", seed=seed)) for i in range(count)]


def public_keys_of(witnesses):
    return {w.identity: w.keypair.public for w in witnesses}


class TestCoSiRound:
    def test_round_produces_verifiable_signature(self):
        witnesses = make_witnesses(4)
        cosign = run_cosi_round(b"a block digest", witnesses)
        assert cosi_verify(cosign, b"a block digest", public_keys_of(witnesses))

    def test_signature_bound_to_record(self):
        witnesses = make_witnesses(4)
        cosign = run_cosi_round(b"record A", witnesses)
        assert not cosi_verify(cosign, b"record B", public_keys_of(witnesses))

    def test_signature_bound_to_signer_keys(self):
        witnesses = make_witnesses(4)
        cosign = run_cosi_round(b"record", witnesses)
        # Same identities but different key pairs: the signature must not verify.
        other_keys = public_keys_of(make_witnesses(4, seed=123))
        assert not cosi_verify(cosign, b"record", other_keys)

    def test_single_witness_round(self):
        witnesses = make_witnesses(1)
        cosign = run_cosi_round(b"solo", witnesses)
        assert cosi_verify(cosign, b"solo", public_keys_of(witnesses))

    def test_missing_public_key_fails_verification(self):
        witnesses = make_witnesses(3)
        cosign = run_cosi_round(b"record", witnesses)
        keys = public_keys_of(witnesses)
        keys.pop("w0")
        assert not cosi_verify(cosign, b"record", keys)

    def test_tampered_challenge_fails(self):
        witnesses = make_witnesses(3)
        cosign = run_cosi_round(b"record", witnesses)
        forged = CollectiveSignature(
            challenge=(cosign.challenge + 1) % CURVE_ORDER,
            response=cosign.response,
            signer_ids=cosign.signer_ids,
        )
        assert not cosi_verify(forged, b"record", public_keys_of(witnesses))

    def test_not_a_signature_object(self):
        witnesses = make_witnesses(2)
        assert not cosi_verify("garbage", b"record", public_keys_of(witnesses))

    @settings(max_examples=8, deadline=None)
    @given(st.binary(min_size=1, max_size=48), st.integers(min_value=1, max_value=5))
    def test_round_verifies_for_arbitrary_records(self, record, count):
        witnesses = make_witnesses(count, seed=9)
        cosign = run_cosi_round(record, witnesses)
        assert cosi_verify(cosign, record, public_keys_of(witnesses))


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


class TestCoSiProtocolStates:
    def test_witness_requires_announcement_before_commit(self):
        witness = make_witnesses(1)[0]
        with pytest.raises(ProtocolError):
            witness.commit()

    def test_witness_requires_commit_before_respond(self):
        witness = make_witnesses(1)[0]
        witness.on_announcement(b"record")
        with pytest.raises(ProtocolError):
            witness.respond(7)

    def test_witness_refuses_foreign_record(self):
        witness = make_witnesses(1)[0]
        witness.on_announcement(b"record A")
        witness.commit()
        with pytest.raises(ProtocolError):
            witness.respond(7, record=b"record B")

    def test_coordinator_rejects_unknown_witness_response(self):
        coordinator = CoSiCoordinator(b"record")
        with pytest.raises(ProtocolError):
            coordinator.add_response("nobody", 1)

    def test_coordinator_requires_commitments_for_challenge(self):
        coordinator = CoSiCoordinator(b"record")
        with pytest.raises(ProtocolError):
            coordinator.challenge()

    def test_coordinator_requires_all_responses(self):
        witnesses = make_witnesses(2)
        coordinator = CoSiCoordinator(b"record")
        for witness in witnesses:
            witness.on_announcement(b"record")
            coordinator.add_commitment(witness.identity, witness.commit())
        challenge = coordinator.challenge()
        coordinator.add_response("w0", witnesses[0].respond(challenge))
        with pytest.raises(ProtocolError):
            coordinator.aggregate()


class TestCulpritIdentification:
    def _run_round_with_liar(self, liar_index: int):
        witnesses = make_witnesses(4)
        coordinator = CoSiCoordinator(b"record")
        for witness in witnesses:
            witness.on_announcement(b"record")
            coordinator.add_commitment(witness.identity, witness.commit())
        challenge = coordinator.challenge()
        for index, witness in enumerate(witnesses):
            response = witness.respond(challenge)
            if index == liar_index:
                response = (response + 1) % CURVE_ORDER
            coordinator.add_response(witness.identity, response)
        return witnesses, coordinator, challenge

    def test_bad_response_invalidates_signature(self):
        witnesses, coordinator, _ = self._run_round_with_liar(2)
        cosign = coordinator.aggregate()
        assert not cosi_verify(cosign, b"record", public_keys_of(witnesses))

    def test_identify_faulty_signer(self):
        witnesses, coordinator, challenge = self._run_round_with_liar(2)
        culprits = identify_faulty_signers(
            coordinator.commitments,
            coordinator.responses,
            challenge,
            public_keys_of(witnesses),
        )
        assert culprits == ["w2"]

    def test_partial_signature_excluding_culprit_verifies(self):
        witnesses, coordinator, challenge = self._run_round_with_liar(1)
        honest = [w for w in witnesses if w.identity != "w1"]
        for witness in honest:
            assert verify_partial(
                witness.identity,
                coordinator.commitments[witness.identity],
                coordinator.responses[witness.identity],
                challenge,
                witness.keypair.public,
            )

    def test_missing_response_reported(self):
        witnesses = make_witnesses(3)
        coordinator = CoSiCoordinator(b"record")
        for witness in witnesses:
            witness.on_announcement(b"record")
            coordinator.add_commitment(witness.identity, witness.commit())
        challenge = coordinator.challenge()
        coordinator.add_response("w0", witnesses[0].respond(challenge))
        culprits = identify_faulty_signers(
            coordinator.commitments, coordinator.responses, challenge, public_keys_of(witnesses)
        )
        assert culprits == ["w1", "w2"]

    def test_honest_round_has_no_culprits(self):
        witnesses = make_witnesses(3)
        coordinator = CoSiCoordinator(b"record")
        for witness in witnesses:
            witness.on_announcement(b"record")
            coordinator.add_commitment(witness.identity, witness.commit())
        challenge = coordinator.challenge()
        for witness in witnesses:
            coordinator.add_response(witness.identity, witness.respond(challenge))
        assert (
            identify_faulty_signers(
                coordinator.commitments,
                coordinator.responses,
                challenge,
                public_keys_of(witnesses),
            )
            == []
        )
