"""Who owns the bytes: derived encoders against the walker, and the one memo.

``wire_form`` derives ``wire_bytes()`` from each declaration (keys encoded and
ordered once, wire-object fields spliced from the child's own bytes), and two
classes -- ``Transaction`` and ``Block``, the frozen objects many holders
splice or store -- keep what they encode to.  Four things have to hold for
that to be safe:

* the derived bytes are the walker's: ``canonical_encode`` of the *fully
  flattened* plain data is the reference, and it never touches a derived
  encoder;
* no kept value survives a change of a signed field;
* request forms, envelopes and journal records store no bytes, and a block
  nothing beyond its own bytes and two digests;
* a memory journal holds a block record as pieces that join to the record's
  bytes, the block's piece being the bytes the block owns.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.encoding import ENCODERS, canonical_encode
from repro.common.timestamps import Timestamp
from repro.common.wire import WIRE_CLASSES
from repro.crypto.cosi import CollectiveSignature
from repro.crypto.hashing import DIGEST_SIZE
from repro.crypto.keys import keypair_for
from repro.ledger.block import Block, BlockDecision
from repro.ledger.checkpoint import Checkpoint
from repro.ledger.log import TransactionLog
from repro.net.message import Envelope, MessageType
from repro.net.network import Network
from repro.recovery.statestore import BlockRecord, FileStateStore, MemoryStateStore, SnapshotRecord
from repro.server.faults import _LOG_TAMPERS
from repro.sim.context import SimContext
from repro.storage.record import GENESIS_CHAIN, RecordVersion
from repro.txn.transaction import ReadSetEntry, Transaction, WriteSetEntry

from test_wire_bytes import traffic_run
from test_wire_roundtrip import BUILDERS

_WIRE_TYPES = tuple(WIRE_CLASSES.values())


def flatten(value):
    """``value`` as plain data only: every wire object, at any depth, as its ``to_wire()``."""
    if isinstance(value, _WIRE_TYPES):
        return flatten(value.to_wire())
    if isinstance(value, dict):
        return {key: flatten(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [flatten(item) for item in value]
    return value


def reference(value) -> bytes:
    """The walker's bytes: no wire object is left for a derived encoder to see."""
    plain = flatten(value)
    assert not _holds_wire_object(plain)
    return canonical_encode(plain)


def _holds_wire_object(value) -> bool:
    if isinstance(value, dict):
        return any(_holds_wire_object(item) for item in value.values())
    if isinstance(value, list):
        return any(_holds_wire_object(item) for item in value)
    return isinstance(value, _WIRE_TYPES)


#: Instances whose optional fields are all absent, beside the builders' full ones.
_SPARSE = {
    "Block": lambda: replace(BUILDERS["Block"](), cosign=None, group=None, transactions=()),
    "Checkpoint": lambda: replace(BUILDERS["Checkpoint"](), cosign=None),
    "Envelope": lambda: replace(BUILDERS["Envelope"](), signature=None, payload=None),
    "Span": lambda: replace(BUILDERS["Span"](), parent=None, end=None, attrs={}),
    "TxnOutcome": lambda: replace(BUILDERS["TxnOutcome"](), block_height=None, decided_at=None),
    "VoteResult": lambda: replace(BUILDERS["VoteResult"](), root=None),
}


class TestDerivedBytesAreTheWalkers:
    @pytest.mark.parametrize("class_name", sorted(WIRE_CLASSES))
    def test_builder_instance(self, class_name):
        instance = BUILDERS[class_name]()
        assert instance.wire_bytes() == reference(instance)
        assert canonical_encode(instance) == reference(instance)

    @pytest.mark.parametrize("class_name", sorted(_SPARSE))
    def test_absent_optionals(self, class_name):
        instance = _SPARSE[class_name]()
        assert canonical_encode(instance) == reference(instance)

    def test_every_class_dispatches_to_its_own_derived_encoder(self):
        for cls in WIRE_CLASSES.values():
            assert ENCODERS[cls] is cls.wire_bytes

    def test_a_sub_group_has_its_own_bytes(self):
        envelope, block = BUILDERS["Envelope"](), BUILDERS["Block"]()
        assert envelope.content_bytes() == reference(envelope.signed_content())
        assert block.body_bytes() == reference(block.body())

    def test_extras_and_tags_are_emitted(self):
        """``extra`` keys (a derived attribute, or ``None`` to be filled in) and
        ``tag`` constants are in the bytes although they are not state."""
        for class_name in ("Histogram", "TxnOutcome", "ReadOp", "WriteOp"):
            instance = BUILDERS[class_name]()
            wire = instance.to_wire()
            assert set(type(instance).WIRE_EXTRAS) <= set(wire)
            assert instance.wire_bytes() == canonical_encode(wire)


#: Beside plain ids, ids whose order by encoded key (UTF-8 length, then bytes)
#: is not their order as ``str``: "b" < "aa" < "é" on the wire.
_ids = st.text(alphabet="abcxyz0123456789-", min_size=1, max_size=6) | st.sampled_from(
    ["b", "aa", "é", "éa", "z\u00ff"]
)
#: Every item starts at the genesis stamp, which the readers take a path of
#: their own for: it is drawn, beside its neighbours, as often as any stamp.
_stamps = st.one_of(
    st.sampled_from([Timestamp.zero(), Timestamp.zero("a"), Timestamp(1, "")]),
    st.builds(Timestamp, st.integers(0, 2**40), _ids),
)
_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.lists(st.integers(0, 9), max_size=3),
)
_reads = st.builds(ReadSetEntry, item_id=_ids, value=_values, rts=_stamps, wts=_stamps)
_writes = st.builds(
    WriteSetEntry,
    item_id=_ids,
    new_value=_values,
    old_value=_values,
    rts=_stamps,
    wts=_stamps,
    blind=st.booleans(),
)
_transactions = st.builds(
    Transaction,
    txn_id=_ids,
    client_id=_ids,
    commit_ts=_stamps,
    read_set=st.lists(_reads, max_size=3),
    write_set=st.lists(_writes, max_size=3),
)
_digests = st.binary(min_size=32, max_size=32)
_cosigns = st.builds(
    CollectiveSignature,
    challenge=st.integers(0, 2**256 - 1),
    response=st.integers(0, 2**256 - 1),
    signer_ids=st.lists(_ids, max_size=3).map(tuple),
)
_blocks = st.builds(
    Block,
    height=st.integers(0, 2**20),
    transactions=st.lists(_transactions, max_size=3),
    roots=st.dictionaries(_ids, _digests, max_size=3),
    decision=st.sampled_from(BlockDecision),
    previous_hash=_digests,
    cosign=st.none() | _cosigns,
    group=st.none() | st.lists(_ids, max_size=3, unique=True),
    view=st.integers(0, 5),
)
_envelopes = st.builds(
    Envelope,
    sender=_ids,
    recipient=_ids,
    message_type=st.sampled_from(MessageType),
    payload=st.fixed_dictionaries({"transaction": _transactions, "commit_ts": st.lists(_values)}),
    signature=st.none() | st.binary(max_size=16),
)
_versions = st.builds(RecordVersion, value=_values, wts=_stamps, rts=_stamps)
#: A fresh shard's chain, chains that start with it, and chains of anything.
_chains = st.one_of(
    st.just(GENESIS_CHAIN),
    st.lists(_versions, max_size=2).map(lambda rest: GENESIS_CHAIN + tuple(rest)),
    st.lists(_versions, max_size=3).map(tuple),
)
_checkpoints = st.builds(
    Checkpoint,
    height=st.integers(0, 2**20),
    head_hash=_digests,
    shard_roots=st.dictionaries(_ids, _digests, max_size=3),
    latest_commit_ts=_stamps,
    transactions_covered=st.integers(0, 2**20),
    cosign=st.none() | _cosigns,
)
_snapshot_records = st.builds(
    SnapshotRecord,
    server_id=_ids,
    next_height=st.integers(0, 2**20),
    multi_versioned=st.booleans(),
    items=st.dictionaries(_ids, _chains, max_size=4),
    checkpoint=st.none() | _checkpoints,
)
#: The shapes production sends: wire objects inside plain dicts and lists.
_payloads = st.recursive(
    st.one_of(_values, _transactions, _blocks, _envelopes),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=5), children, max_size=3),
    ),
    max_leaves=5,
)


class TestDerivedBytesAreTheWalkersOnGeneratedInput:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_transactions)
    def test_transactions(self, txn):
        assert txn.wire_bytes() == reference(txn)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_blocks)
    def test_blocks(self, block):
        assert block.wire_bytes() == reference(block)
        assert block.body_bytes() == reference(block.body())

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_snapshot_records)
    def test_snapshot_records(self, record):
        assert record.wire_bytes() == reference(record)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_payloads)
    def test_wire_objects_nested_in_payloads(self, payload):
        assert canonical_encode(payload) == reference(payload)
        envelope = Envelope("s0", "s1", MessageType.GET_VOTE, payload)
        assert envelope.content_bytes() == reference(envelope.signed_content())


def _kept(instance) -> dict:
    """What an instance holds beyond its fields."""
    return {name: value for name, value in vars(instance).items() if name.endswith("()")}


def _warm(block: Block) -> None:
    """Ask a block (and its transactions) for everything that is kept anywhere."""
    canonical_encode(block)
    block.body_digest()
    block.group_body_digest()
    block.block_hash()
    for txn in block.transactions:
        txn.encoded()


def _fresh(block: Block) -> Block:
    """An equal block built from scratch: nothing kept, nothing shared."""
    return Block.from_wire(flatten(block))


def assert_as_if_fresh(block: Block) -> None:
    twin = _fresh(block)
    assert block == twin
    assert canonical_encode(block) == reference(block) == canonical_encode(twin)
    assert block.body_digest() == twin.body_digest()
    assert block.group_body_digest() == twin.group_body_digest()
    assert block.block_hash() == twin.block_hash()
    for mine, theirs in zip(block.transactions, twin.transactions):
        assert mine.wire_bytes() == theirs.wire_bytes()
        assert mine.encoded() == theirs.encoded()


class TestNoKeptValueSurvivesAChange:
    def test_transaction_keeps_both_its_byte_forms(self):
        txn = replace(BUILDERS["Transaction"]())
        assert _kept(txn) == {}
        wire, flat = txn.wire_bytes(), txn.encoded()
        assert _kept(txn) == {"wire_bytes()": wire, "encoded()": flat}
        assert txn.wire_bytes() is wire and txn.encoded() is flat

    def test_replacing_a_transaction_field_yields_fresh_bytes(self):
        txn = BUILDERS["Transaction"]()
        wire, flat = txn.wire_bytes(), txn.encoded()
        entry = replace(txn.write_set[0], new_value="__other__")
        changed = replace(txn, write_set=(entry,))
        assert _kept(changed) == {}
        assert changed.wire_bytes() == reference(changed) != wire
        assert changed.encoded() != flat
        assert txn.wire_bytes() == wire and txn.encoded() == flat

    def test_replacing_a_blocks_transactions_yields_fresh_bytes_and_digests(self):
        block = BUILDERS["Block"]()
        _warm(block)
        before = (canonical_encode(block), block.body_digest(), block.group_body_digest())
        txn = replace(block.transactions[0], txn_id="t-forged")
        changed = replace(block, transactions=(txn,))
        assert _kept(changed) == {}
        assert_as_if_fresh(changed)
        after = (canonical_encode(changed), changed.body_digest(), changed.group_body_digest())
        assert all(old != new for old, new in zip(before, after))

    def test_with_decision_and_with_cosign(self):
        block = replace(BUILDERS["Block"](), cosign=None)
        _warm(block)
        decided = block.with_decision(BlockDecision.ABORT, {})
        assert _kept(decided) == {}
        assert_as_if_fresh(decided)
        assert decided.body_digest() != block.body_digest()
        signed = decided.with_cosign(BUILDERS["CollectiveSignature"]())
        assert _kept(signed) == {}
        assert_as_if_fresh(signed)
        assert signed.body_digest() == decided.body_digest()  # the co-sign is not in the body
        assert signed.block_hash() != decided.block_hash()
        assert canonical_encode(signed) != canonical_encode(decided)

    @pytest.mark.parametrize("fault", ["log-tamper", "fork-decision", "forge-cosign"])
    def test_the_tampering_plans(self, fault):
        block = replace(BUILDERS["Block"](), height=0, group=None)
        log = TransactionLog([block])
        _warm(log[0])
        before = canonical_encode(log[0]), log[0].block_hash()
        assert _LOG_TAMPERS[fault](log, {"height": 0})
        assert log[0] is not block
        assert_as_if_fresh(log[0])
        assert canonical_encode(log[0]) != before[0]
        assert log[0].block_hash() != before[1]

    def test_tamper_replace(self):
        block = replace(BUILDERS["Block"](), height=0)
        log = TransactionLog([block])
        _warm(log[0])
        log.tamper_replace(0, replace(block, view=3))
        assert_as_if_fresh(log[0])
        assert log[0].body_digest() != block.body_digest()

    @pytest.mark.parametrize(
        "change",
        [
            "with_decision", "with_cosign", "tamper_replace",
            "log-tamper", "fork-decision", "forge-cosign",
        ],
    )
    def test_a_blocks_kept_bytes_do_not_survive_a_change(self, change):
        """A block owns its bytes: every way a block changes builds a new
        instance, which encodes afresh, and leaves the old one's bytes alone."""
        block = replace(BUILDERS["Block"](), height=0, group=None)
        kept_bytes = block.wire_bytes()
        assert _kept(block)["wire_bytes()"] is kept_bytes
        if change == "with_decision":
            changed = block.with_decision(BlockDecision.ABORT, {})
        elif change == "with_cosign":
            changed = block.with_cosign(replace(block.cosign, response=block.cosign.response ^ 1))
        else:
            log = TransactionLog([block])
            if change == "tamper_replace":
                log.tamper_replace(0, replace(block, view=3))
            else:
                assert _LOG_TAMPERS[change](log, {"height": 0})
            changed = log[0]
        assert changed is not block
        assert "wire_bytes()" not in _kept(changed)
        assert changed.wire_bytes() == reference(changed) != kept_bytes
        assert _kept(changed)["wire_bytes()"] is changed.wire_bytes()
        assert block.wire_bytes() is kept_bytes == reference(block)

    def test_a_payload_mutated_after_signing_fails_verification(self):
        """An envelope's payload is a plain, mutable dict: were the signed bytes
        kept, a change made after signing would still verify."""
        network = Network(SimContext())
        for identity in ("c0", "s0"):
            network.register_observer(identity, keypair_for(identity))
        payload = {"transaction": BUILDERS["Transaction"](), "commit_ts": [5, "c2"]}
        envelope = network.sign_envelope(
            Envelope("c0", "s0", MessageType.END_TRANSACTION, payload)
        )
        assert network.verify_envelope(envelope)
        payload["commit_ts"] = [6, "c2"]
        assert not network.verify_envelope(envelope)
        payload["commit_ts"] = [5, "c2"]
        assert network.verify_envelope(envelope)
        payload["transaction"] = replace(payload["transaction"], txn_id="t-other")
        assert not network.verify_envelope(envelope)


def _long_bytes(instance) -> dict:
    """Bytes longer than a digest that an instance holds beside its fields."""
    state = {field.name for field in fields(instance)}
    return {
        name: value
        for name, value in vars(instance).items()
        if name not in state and isinstance(value, (bytes, bytearray)) and len(value) > DIGEST_SIZE
    }


#: The classes declared ``owns_bytes=True``: frozen objects that many holders splice or store.
OWNERS = {"Block", "Transaction"}


class TestContainersStoreNothing:
    def test_only_transaction_and_block_are_declared_to_own_their_bytes(self):
        """An owner keeps the bytes it encodes to; encoding leaves every other
        instance -- request forms, envelopes, journal records -- exactly as it was."""
        kept_encoders = {
            name for name, cls in WIRE_CLASSES.items() if hasattr(cls.wire_bytes, "__wrapped__")
        }
        assert kept_encoders == OWNERS
        for class_name, build in BUILDERS.items():
            instance = build()
            if not hasattr(instance, "__dict__"):
                continue
            before = dict(vars(instance))
            encoded = canonical_encode(instance)
            assert instance.wire_bytes() == encoded
            if class_name in OWNERS:
                assert vars(instance) == {**before, "wire_bytes()": encoded}, class_name
                assert instance.wire_bytes() is encoded
            else:
                assert vars(instance) == before, class_name

    def test_a_block_keeps_its_bytes_and_digests_only(self):
        block = BUILDERS["Block"]()
        _warm(block)
        assert set(_kept(block)) == {"wire_bytes()", "body_digest()", "group_body_digest()"}
        assert _long_bytes(block) == {"wire_bytes()": canonical_encode(block)}

    def test_an_envelope_keeps_nothing(self):
        network = Network(SimContext())
        for identity in ("c0", "s0"):
            network.register_observer(identity, keypair_for(identity))
        envelope = network.sign_envelope(
            Envelope(
                "c0",
                "s0",
                MessageType.END_TRANSACTION,
                {"transaction": BUILDERS["Transaction"](), "pad": "x" * 64},
            )
        )
        assert network.verify_envelope(envelope)
        canonical_encode(envelope)
        assert _kept(envelope) == {}
        assert _long_bytes(envelope) == {}


def _stored(store) -> list:
    """The records a state store holds, as it stores them."""
    return list(store._iter_stored())


class TestAJournalHoldsABlockRecordAsPieces:
    """``record_block`` appends the bytes a block owns between two short
    pieces.  Joined, they are the record's one byte form, which the derived
    encoder and the walker still define; and every memory journal recording
    one block instance holds that instance's one bytes object."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_blocks, _digests)
    def test_the_pieces_join_to_the_record(self, block, root):
        store = MemoryStateStore()
        store.record_block(block, root)
        (pieces,) = _stored(store)
        record = BlockRecord(block, root)
        assert b"".join(pieces) == canonical_encode(record) == reference(record)
        assert pieces[0] == BlockRecord.WIRE_PREFIX
        assert pieces[1] is block.wire_bytes()
        assert list(store._iter_payloads()) == [canonical_encode(record)]
        assert store.size_bytes() == len(canonical_encode(record))
        assert BlockRecord.from_bytes(b"".join(pieces)) == record

    def test_a_file_journal_frames_the_join(self, tmp_path):
        block, root = BUILDERS["Block"](), b"\x0f" * 32
        store = FileStateStore(str(tmp_path / "s0.wal"))
        store.record_block(block, root)
        store.close()
        payload = canonical_encode(BlockRecord(block, root))
        framed = struct.pack(">II", len(payload), zlib.crc32(payload)) + payload
        assert (tmp_path / "s0.wal").read_bytes() == framed

    def test_journals_recording_one_block_share_its_bytes(self):
        block = BUILDERS["Block"]()
        copied = replace(block)  # equal, but another instance
        equivocated = block.with_decision(BlockDecision.ABORT, {})  # same height, other content
        journals = [MemoryStateStore(), MemoryStateStore()]
        for index, store in enumerate(journals):
            for recorded in (block, copied, equivocated):
                store.record_block(recorded, bytes([index]) * 32)
        (mine, my_copy, my_fork), (theirs, their_copy, their_fork) = map(_stored, journals)
        assert mine[1] is theirs[1] is block.wire_bytes()
        assert my_copy[1] is their_copy[1] is copied.wire_bytes()
        assert my_copy[1] == mine[1] and my_copy[1] is not mine[1]
        assert my_fork[1] is their_fork[1] is equivocated.wire_bytes() != mine[1]
        # The shard root is each journal's own.
        assert mine[0] is theirs[0] and mine[2] != theirs[2]

    @pytest.mark.parametrize("deployment", ["classic", "scaled", "2pc"])
    def test_every_server_of_a_deployment_shares_each_blocks_bytes(self, deployment):
        system = traffic_run(deployment)
        journals = [_stored(system.server(sid).state_store) for sid in system.server_ids]
        assert len({len(journal) for journal in journals}) == 1
        for records in list(zip(*journals))[1:]:  # the genesis snapshot is each server's own
            assert len({id(pieces[1]) for pieces in records}) == 1
        assert len(journals[0]) > 2
