"""Tests for blocks -- including the Table 1 field inventory."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.common.encoding import canonical_encode
from repro.common.errors import ValidationError
from repro.common.timestamps import Timestamp
from repro.crypto.cosi import cosign
from repro.crypto.hashing import EMPTY_HASH
from repro.crypto.keys import keypair_for
from repro.ledger.block import Block, BlockDecision, genesis_previous_hash, make_partial_block
from repro.txn.transaction import ReadSetEntry, Transaction, WriteSetEntry


def make_txn(txn_id="t1", counter=5, item="x", value=10):
    ts = Timestamp(counter, "c0")
    return Transaction(
        txn_id=txn_id,
        client_id="c0",
        commit_ts=ts,
        read_set=[ReadSetEntry(item, 0, Timestamp.zero(), Timestamp.zero())],
        write_set=[WriteSetEntry(item, value)],
    )


def make_block(decision=BlockDecision.COMMIT, cosigned=True, height=0):
    block = make_partial_block(height, [make_txn()], genesis_previous_hash())
    block = block.with_decision(decision, {"s0": b"\x01" * 32})
    if cosigned:
        keypairs = {f"s{i}": keypair_for(f"s{i}") for i in range(3)}
        block = block.with_cosign(cosign(block.body_digest(), keypairs))
    return block


class TestTable1Fields:
    """Every field of Table 1 must be present in a block."""

    def test_txn_id_is_the_commit_timestamp(self):
        block = make_block()
        assert block.txn_ids == (str(Timestamp(5, "c0")),)

    def test_read_set_entries(self):
        entry = make_block().read_set[0]
        assert entry.item_id == "x"
        assert entry.value == 0
        assert entry.rts == Timestamp.zero()
        assert entry.wts == Timestamp.zero()

    def test_write_set_entries_carry_new_and_old_values(self):
        entry = make_block().write_set[0]
        assert entry.item_id == "x"
        assert entry.new_value == 10
        assert hasattr(entry, "old_value")
        assert hasattr(entry, "rts") and hasattr(entry, "wts")

    def test_mht_roots_of_involved_shards(self):
        block = make_block()
        assert block.roots == {"s0": b"\x01" * 32}
        assert block.involved_servers() == ("s0",)

    def test_decision_field(self):
        assert make_block(BlockDecision.COMMIT).is_commit
        assert not make_block(BlockDecision.ABORT).is_commit

    def test_hash_of_previous_block(self):
        assert make_block().previous_hash == genesis_previous_hash() == EMPTY_HASH

    def test_collective_signature_field(self):
        assert make_block(cosigned=True).cosign is not None
        assert make_block(cosigned=False).cosign is None


class TestBlockHashing:
    def test_body_digest_excludes_cosign(self):
        unsigned = make_block(cosigned=False)
        signed = make_block(cosigned=True)
        assert unsigned.body_digest() == signed.body_digest()

    def test_block_hash_includes_cosign(self):
        unsigned = make_block(cosigned=False)
        signed = make_block(cosigned=True)
        assert unsigned.block_hash() != signed.block_hash()

    def test_digest_changes_with_decision(self):
        commit = make_block(BlockDecision.COMMIT, cosigned=False)
        abort = make_block(BlockDecision.ABORT, cosigned=False)
        assert commit.body_digest() != abort.body_digest()

    def test_digest_changes_with_transactions(self):
        base = make_partial_block(0, [make_txn("t1")], genesis_previous_hash())
        other = make_partial_block(0, [make_txn("t2", value=11)], genesis_previous_hash())
        assert base.body_digest() != other.body_digest()

    def test_digest_changes_with_previous_hash(self):
        base = make_partial_block(0, [make_txn()], genesis_previous_hash())
        other = make_partial_block(0, [make_txn()], b"\x07" * 32)
        assert base.body_digest() != other.body_digest()

    def test_digest_is_cached_and_stable(self):
        block = make_block(cosigned=False)
        assert block.body_digest() == block.body_digest()


class TestBlockStructure:
    def test_negative_height_rejected(self):
        with pytest.raises(ValidationError):
            Block(
                height=-1,
                transactions=(),
                roots={},
                decision=BlockDecision.ABORT,
                previous_hash=EMPTY_HASH,
            )

    def test_multiple_transactions_per_block(self):
        txns = [make_txn(f"t{i}", counter=5 + i, item=f"x{i}") for i in range(3)]
        block = make_partial_block(0, txns, genesis_previous_hash())
        assert len(block.transactions) == 3
        assert len(block.read_set) == 3
        assert block.max_commit_ts == Timestamp(7, "c0")

    def test_partial_block_defaults_to_abort_without_roots(self):
        block = make_partial_block(0, [make_txn()], genesis_previous_hash())
        assert block.decision is BlockDecision.ABORT
        assert block.roots == {}

    def test_empty_block_max_ts(self):
        block = make_partial_block(0, [], genesis_previous_hash())
        assert block.max_commit_ts == Timestamp.zero()

    def test_to_wire_roundtrip_shape(self):
        wire = make_block().to_wire()
        assert set(wire) == {"body", "cosign"}
        assert wire["body"]["decision"] == "commit"


class TestRootsAreReadOnly:
    """A block keeps its digests (and its bytes): a root changed in place would
    leave them describing a block that no longer exists."""

    def test_in_place_changes_are_refused(self):
        block = make_block()
        with pytest.raises(TypeError):
            block.roots["s0"] = b"\x02" * 32
        with pytest.raises(TypeError):
            block.roots["s9"] = b"\x02" * 32
        with pytest.raises(TypeError):
            del block.roots["s0"]
        assert block.roots == {"s0": b"\x01" * 32}

    def test_the_given_mapping_is_copied(self):
        roots = {"s0": b"\x01" * 32}
        block = make_partial_block(0, [make_txn()], genesis_previous_hash()).with_decision(
            BlockDecision.COMMIT, roots
        )
        roots["s0"] = b"\x02" * 32
        direct = Block(0, (), roots, BlockDecision.ABORT, EMPTY_HASH)
        roots["s1"] = b"\x03" * 32
        assert block.roots == {"s0": b"\x01" * 32}
        assert direct.roots == {"s0": b"\x02" * 32}

    def test_equality_and_the_wire_form_are_a_plain_dicts(self):
        block = make_block()
        assert block.roots == {"s0": b"\x01" * 32} and {"s0": b"\x01" * 32} == block.roots
        assert block == Block.from_wire(block.to_wire())
        roots = block.to_wire()["body"]["roots"]
        assert type(roots) is dict and roots == {"s0": b"\x01" * 32}
        assert Block.from_bytes(canonical_encode(block)) == block

    def test_replacing_the_roots_yields_fresh_bytes_and_digests(self):
        block = make_block()
        before = (canonical_encode(block), block.body_digest(), block.group_body_digest())
        changed = replace(block, roots={"s0": b"\x02" * 32})
        after = (canonical_encode(changed), changed.body_digest(), changed.group_body_digest())
        assert all(old != new for old, new in zip(before, after))
        fresh = Block.from_wire(changed.to_wire())
        assert after == (canonical_encode(fresh), fresh.body_digest(), fresh.group_body_digest())
        assert (canonical_encode(block), block.body_digest()) == before[:2]
