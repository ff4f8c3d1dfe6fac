"""Known answers of the CoSi witness and of an in-process co-sign.

The literals below were recorded from the class-based CoSi round.  Whatever
drives the phases, a witness's nonce, commitment and response are these
integers, and a co-sign over a fixed signer set is this signature: every
block's and checkpoint's co-sign bytes, and so every log head, follow from
them.  Each vector is also checked against plain double-and-add, which
shares no code with the key tables.
"""

from __future__ import annotations

import pytest

from repro.common.timestamps import Timestamp
from repro.crypto.cosi import cosi_verify, cosign, witness_commitment, witness_response
from repro.crypto.group import GENERATOR, point_add, scalar_multiply
from repro.crypto.keys import keypair_for
from repro.ledger.block import BlockDecision, make_partial_block
from repro.ledger.checkpoint import build_checkpoint, cosign_checkpoint
from repro.ledger.log import TransactionLog
from repro.txn.transaction import Transaction, WriteSetEntry

RECORD = b"tfcommit partial block digest"
CHALLENGE = int.from_bytes(bytes(range(1, 33)), "big") % 2**255

#: identity -> (the commitment ``V = v*G``'s encoding, the response ``r = v - c*x``)
#: of ``keypair_for(identity)`` witnessing ``RECORD`` under ``CHALLENGE``.
WITNESS_VECTORS = {
    "s0": (
        "02c1811464806e9fd4413a57f04682d579e5ccb70a91aa070677498416e3bb2e45",
        0x1304648D898E28A0C0DCBF48C64C75CAD04BD02FD966C00D94101DE09CBF7723,
    ),
    "c1": (
        "032925b3b8e921ea7235ff4316c4aec0fdcb8c2c09d5e688c54f9596b6a053763c",
        0xE4A9D905B5C4F53150FCFFD83D8090422007E5529699FB7F498AF651D7F45308,
    ),
}

#: The three signers, listed out of order: the signature names them sorted.
SIGNERS = {sid: keypair_for(sid, seed=7) for sid in ("s2", "s0", "s1")}

#: ``(challenge, response, signer_ids)`` of the co-sign of ``RECORD`` by ``SIGNERS``.
COSIGN_VECTOR = (
    0x2249A4F6B0A4517F7FA4CCA188D909BD85637E63A299127417BCB3E73BF00EF6,
    0x379523079B240ED9D50E9BE5D14BCBF61999F9CDDF3D3BD9617C05F73499902B,
    ("s0", "s1", "s2"),
)

#: The digest of the checkpoint over ``_fixed_log()`` and ``(challenge,
#: response, signer_ids)`` of its co-sign by ``SIGNERS``.
CHECKPOINT_DIGEST = "ddb1987e05b2f5ee123d06a696019e48cbf74ea6e37e9b085f939ed1870e4eba"
CHECKPOINT_VECTOR = (
    0xBE4CA627A56A95BEA3A63E7EA7D77ADDC24398D6C08448BECBA36D5EC6B1AB4F,
    0xB547FD3D1DA60F23A73141ABAA14D89950311A013B6CF962E94AD859CED47AB2,
    ("s0", "s1", "s2"),
)


def _witness(identity: str):
    """(commitment, response) of ``identity``'s witness for ``RECORD``, ``CHALLENGE``."""
    keypair = keypair_for(identity)
    nonce, commitment = witness_commitment(keypair, RECORD)
    return commitment, witness_response(keypair, nonce, CHALLENGE)


def _fixed_log() -> TransactionLog:
    """Three unsigned commit blocks, chained: nothing in it depends on CoSi."""
    log = TransactionLog()
    for index in range(3):
        txn = Transaction(
            txn_id=f"t{index}",
            client_id="c0",
            commit_ts=Timestamp(index + 1, "c0"),
            read_set=[],
            write_set=[WriteSetEntry(f"item-{index}", index)],
        )
        block = make_partial_block(log.height, [txn], log.head_hash)
        log.append(
            block.with_decision(BlockDecision.COMMIT, {"s0": bytes([index]) * 32}),
            verify_link=False,
        )
    return log


def _reference_check(commitment, response: int, challenge: int, public) -> bool:
    """``r*G + c*P == V`` by double-and-add only."""
    reconstructed = point_add(
        scalar_multiply(response, GENERATOR), scalar_multiply(challenge, public.point)
    )
    return reconstructed == commitment


@pytest.mark.parametrize("identity", sorted(WITNESS_VECTORS))
def test_the_witness_commits_and_responds_as_recorded(identity):
    commitment, response = _witness(identity)
    assert (commitment.encode().hex(), response) == WITNESS_VECTORS[identity]
    assert _reference_check(commitment, response, CHALLENGE, keypair_for(identity).public)


def test_the_cosign_of_a_fixed_signer_set_is_the_recorded_one():
    signature = cosign(RECORD, SIGNERS)
    assert (signature.challenge, signature.response, signature.signer_ids) == COSIGN_VECTOR
    public_keys = {sid: kp.public for sid, kp in SIGNERS.items()}
    assert cosi_verify(signature, RECORD, public_keys)


def test_the_cosign_of_a_checkpoint_is_the_recorded_one():
    roots = {sid: bytes([ord(sid[-1])]) * 32 for sid in ("s0", "s1", "s2")}
    checkpoint = build_checkpoint(_fixed_log(), roots)
    assert checkpoint.digest().hex() == CHECKPOINT_DIGEST
    signature = cosign_checkpoint(checkpoint, SIGNERS).cosign
    assert (signature.challenge, signature.response, signature.signer_ids) == CHECKPOINT_VECTOR
    public_keys = {sid: kp.public for sid, kp in SIGNERS.items()}
    assert cosi_verify(signature, checkpoint.digest(), public_keys)
