"""Round trips through real bytes, as the WAL and the catch-up protocol make them."""

from __future__ import annotations

import pytest

from repro.common.encoding import canonical_decode, canonical_encode
from repro.common.errors import ValidationError
from repro.common.timestamps import Timestamp
from repro.crypto.cosi import CollectiveSignature, cosign
from repro.crypto.keys import keypair_for
from repro.ledger.block import Block
from repro.ledger.checkpoint import Checkpoint
from repro.txn.transaction import Transaction


class TestBlockRoundTrip:
    @pytest.mark.parametrize("group", [None, ("s0", "s1")], ids=["classic", "group"])
    def test_wire_round_trip_preserves_digests(self, block_factory, group):
        block = block_factory(group=group)
        # Through actual bytes, exactly as the WAL and catch-up do.
        decoded = Block.from_wire(canonical_decode(canonical_encode(block.to_wire())))
        assert decoded.block_hash() == block.block_hash()
        assert decoded.signing_digest() == block.signing_digest()
        assert decoded.height == block.height
        assert decoded.group == block.group
        assert decoded.roots == dict(block.roots)
        assert [t.txn_id for t in decoded.transactions] == [
            t.txn_id for t in block.transactions
        ]

    def test_transaction_round_trip_preserves_encoding(self, transaction_factory):
        txn = transaction_factory()
        decoded = Transaction.from_wire(canonical_decode(canonical_encode(txn.to_wire())))
        assert decoded.encoded() == txn.encoded()
        assert decoded.write_set[1].blind is True

    def test_cosign_round_trip(self, block_factory):
        block = block_factory()
        decoded = CollectiveSignature.from_wire(block.cosign.to_wire())
        assert decoded == block.cosign
        # "No co-sign yet" is the optional field's business, not the decoder's.
        with pytest.raises(ValidationError):
            CollectiveSignature.from_wire(None)

    def test_malformed_block_rejected(self, block_factory):
        wire = block_factory().to_wire()
        broken = dict(wire)
        broken["body"] = {k: v for k, v in wire["body"].items() if k != "roots"}
        with pytest.raises(ValidationError):
            Block.from_wire(broken)

    def test_non_bytes_root_rejected(self, block_factory):
        wire = block_factory().to_wire()
        body = dict(wire["body"])
        body["roots"] = {"s0": "not-bytes"}
        with pytest.raises(ValidationError):
            Block.from_wire({"body": body, "cosign": wire["cosign"]})


class TestCheckpointRoundTrip:
    def test_wire_round_trip_preserves_digest(self):
        checkpoint = Checkpoint(
            height=9,
            head_hash=b"\x44" * 32,
            shard_roots={"s0": b"\x55" * 32, "s1": b"\x66" * 32},
            latest_commit_ts=Timestamp(12, "client-1"),
            transactions_covered=17,
        )
        keypairs = {sid: keypair_for(sid, seed=5) for sid in ("s0", "s1")}
        checkpoint = checkpoint.with_cosign(cosign(checkpoint.digest(), keypairs))
        decoded = Checkpoint.from_wire(canonical_decode(canonical_encode(checkpoint.to_wire())))
        assert decoded.digest() == checkpoint.digest()
        assert decoded.cosign == checkpoint.cosign
        assert decoded.latest_commit_ts == checkpoint.latest_commit_ts

    def test_malformed_checkpoint_rejected(self):
        with pytest.raises(ValidationError):
            Checkpoint.from_wire({"height": 1})
