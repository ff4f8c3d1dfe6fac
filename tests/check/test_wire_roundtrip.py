"""Round-trip property: every wire class decodes back to itself.

The suite is parametrised from the registry (``WIRE_CLASSES``, filled by the
``wire_form`` declarations): a class cannot have an encoder without a decoder
-- both are derived from its one declaration -- so what is left to check is
that each declaration is *right*: a representative instance of every
registered class survives the trip, through real bytes, and re-encodes to the
bytes it came from.  Registering a new wire class without a builder here
fails ``test_every_registered_class_has_a_builder``.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.common.encoding import canonical_decode, canonical_encode
from repro.common.errors import ValidationError
from repro.common.timestamps import Timestamp
from repro.common.wire import INT, WIRE_CLASSES, wire_form
from repro.core.grouping import ServerGroup
from repro.core.rounds import TxnOutcome
from repro.crypto.cosi import CollectiveSignature
from repro.crypto.merkle import VerificationObject
from repro.ledger.anchor import EpochAnchor
from repro.ledger.block import Block, BlockDecision
from repro.ledger.checkpoint import Checkpoint
from repro.net import forms
from repro.net.forms import FrontierCertificate, VoteResult
from repro.net.message import Envelope, MessageType
from repro.obs.metrics import Histogram
from repro.obs.trace import Span
from repro.recovery.statestore import BlockRecord, SnapshotRecord
import repro.recovery.wire  # noqa: F401  (imports every module that fills WIRE_CLASSES)
from repro.storage.datastore import ReadResult
from repro.storage.record import RecordVersion
from repro.txn.operations import ReadOp, WriteOp
from repro.txn.transaction import ReadSetEntry, Transaction, WriteSetEntry


_TS = Timestamp(3, "c1")
_TS2 = Timestamp(5, "c2")
_COSIGN = CollectiveSignature(challenge=11, response=22, signer_ids=("s0", "s1", "s2"))
_READ = ReadSetEntry(item_id="x1", value=7, rts=_TS, wts=_TS)
_WRITE = WriteSetEntry(
    item_id="x2", new_value=9, old_value=1, rts=_TS, wts=_TS, blind=False
)
_TXN = Transaction(
    txn_id="t1", client_id="c1", commit_ts=_TS2, read_set=(_READ,), write_set=(_WRITE,)
)


def _build_histogram() -> Histogram:
    histogram = Histogram()
    histogram.observe(0.002)
    histogram.observe(0.5)
    return histogram


#: One representative instance per wire class (decoder-equality checked).
BUILDERS = {
    "Block": lambda: Block(
        height=4,
        transactions=(_TXN,),
        roots={"s0": b"\x01" * 32, "s1": b"\x02" * 32},
        decision=BlockDecision.COMMIT,
        previous_hash=b"\x03" * 32,
        cosign=_COSIGN,
        group=("s0", "s1"),
    ),
    "BlockRecord": lambda: BlockRecord(block=BUILDERS["Block"](), shard_root=b"\x0f" * 32),
    "Checkpoint": lambda: Checkpoint(
        height=9,
        head_hash=b"\x04" * 32,
        shard_roots={"s0": b"\x05" * 32},
        latest_commit_ts=_TS2,
        transactions_covered=12,
        cosign=_COSIGN,
    ),
    "CollectiveSignature": lambda: _COSIGN,
    "EpochAnchor": lambda: EpochAnchor(
        epoch=2,
        start_height=5,
        end_height=8,
        shard_heights=(3, 5),
        shard_heads=(b"\x0c" * 32, b"\x0d" * 32),
        previous=b"\x0e" * 32,
    ),
    "Envelope": lambda: Envelope(
        sender="s0",
        recipient="s1",
        message_type=MessageType.PREPARE,
        payload={"round": 3},
        signature=b"\x06" * 16,
    ),
    "FrontierCertificate": lambda: FrontierCertificate(
        server_id="s1",
        view=2,
        height=4,
        head_hash=b"\x0b" * 32,
        head=BUILDERS["Block"]().to_wire(),
    ),
    "Histogram": _build_histogram,
    "ReadOp": lambda: ReadOp(item_id="x1"),
    "ReadResult": lambda: ReadResult(item_id="x1", value=7, rts=_TS, wts=_TS2),
    "ReadSetEntry": lambda: _READ,
    "RecordVersion": lambda: RecordVersion(value=7, wts=_TS, rts=_TS2),
    "ServerGroup": lambda: ServerGroup(
        members=frozenset({"s0", "s1"}), coordinator="s0"
    ),
    "SnapshotRecord": lambda: SnapshotRecord(
        server_id="s0",
        next_height=10,
        multi_versioned=True,
        items={
            "x1": (RecordVersion(value=7, wts=_TS, rts=_TS2),),
            "x10": (
                RecordVersion(value=None, wts=Timestamp.zero(), rts=Timestamp.zero()),
                RecordVersion(value={"k": [1, b"v"]}, wts=_TS, rts=_TS),
            ),
            "x2": (RecordVersion(value="nine", wts=_TS2, rts=_TS2),),
        },
        checkpoint=BUILDERS["Checkpoint"](),
    ),
    "Span": lambda: Span(
        span_id=7,
        parent=3,
        kind="span",
        name="get_vote",
        category="phase",
        resource="s0",
        pid=1,
        start=0.5,
        end=0.75,
        status="ok",
        attrs={"view": 1},
    ),
    "Transaction": lambda: _TXN,
    "TxnOutcome": lambda: TxnOutcome(
        txn_id="t1", status="committed", block_height=4, reason="", decided_at=1.25
    ),
    "VerificationObject": lambda: VerificationObject(
        item_id="x1",
        leaf_index=2,
        siblings=((b"\x07" * 32, True), (b"\x08" * 32, False)),
    ),
    "VoteResult": lambda: VoteResult(
        server_id="s0",
        involved=True,
        decision="commit",
        commitment=b"\x09" * 32,
        root=b"\x0a" * 32,
        compute_time=0.5,
        mht_time=0.25,
        mht_hashes=6,
        abort_reason="",
    ),
    "WriteOp": lambda: WriteOp(item_id="x2", value=9),
    "WriteSetEntry": lambda: _WRITE,
    # -- the request forms of the message table (repro.net.forms) -------------------
    "BeginTxn": lambda: forms.BeginTxn(txn_id="c1-txn-7", client_id="c1"),
    "ReadItem": lambda: forms.ReadItem(txn_id="c1-txn-7", item_id="x1"),
    "WriteItem": lambda: forms.WriteItem(txn_id="c1-txn-7", item_id="x2", value={"k": [1, b"v"]}),
    "EndTxn": lambda: forms.EndTxn(transaction=_TXN, commit_ts=_TS2),
    "Proposal": lambda: forms.Proposal(
        block=BUILDERS["Block"](),
        client_requests=(
            Envelope(
                "c1", "s0", MessageType.END_TRANSACTION, BUILDERS["EndTxn"](), b"\x06" * 16
            ),
        ),
    ),
    "Challenge": lambda: forms.Challenge(
        challenge=11, aggregate_commitment=b"\x09" * 33, block=BUILDERS["Block"]()
    ),
    "DecidedBlock": lambda: forms.DecidedBlock(block=BUILDERS["Block"]()),
    "RoundFailed": lambda: forms.RoundFailed(round_key=("group", 3, "t1", "t2")),
    "ViewChange": lambda: forms.ViewChange(group=("s1", "s0"), deposed="s0", view=3),
    "StateRequest": lambda: forms.StateRequest(from_height=4),
    "AuditLogRequest": lambda: forms.AuditLogRequest(full=True),
    "AuditVoRequest": lambda: forms.AuditVoRequest(item_id="x1", at=_TS2),
    # -- ... and the reply forms --------------------------------------------------
    "Refusal": lambda: forms.Refusal(
        server_id="s1", reason="round is challenged", compute_time=0.5, unreachable=False
    ),
    "Ack": lambda: forms.Ack(server_id="s1"),
    "WriteAck": lambda: forms.WriteAck(old=BUILDERS["ReadResult"]()),
    "PrepareVote": lambda: forms.PrepareVote(
        involved=True, decision="abort", reason="stale read", compute_time=0.5
    ),
    "ChallengeResponse": lambda: forms.ChallengeResponse(response=22, compute_time=0.5),
    "Applied": lambda: forms.Applied(state_known=True, compute_time=0.5),
    "Released": lambda: forms.Released(released=2, compute_time=0.5),
    "FrontierReport": lambda: forms.FrontierReport(
        certificate=BUILDERS["FrontierCertificate"](),
        stalled=(BUILDERS["Proposal"](),),
        compute_time=0.5,
    ),
    "StateResponse": lambda: forms.StateResponse(head_height=5, blocks=(BUILDERS["Block"](),)),
    "Termination": lambda: forms.Termination(
        queued=False,
        outcomes=(
            BUILDERS["TxnOutcome"](),
            TxnOutcome(
                txn_id="t2",
                status="aborted",
                block_height=4,
                reason="stale read",
                decided_at=1.25,
                block_digest=b"\x10" * 32,
                cosign=_COSIGN,
            ),
        ),
        frontier=_TS2,
    ),
    "Inclusion": lambda: forms.Inclusion(
        value={"k": [1, b"v"]}, vo=BUILDERS["VerificationObject"]()
    ),
}


class TestCoverage:
    def test_every_registered_class_has_a_builder(self):
        assert set(BUILDERS) == set(WIRE_CLASSES)


class TestTotality:
    """A declaration accounts for every field, or the class does not exist."""

    def test_a_field_without_a_kind_fails_at_class_creation(self):
        with pytest.raises(TypeError, match="extra_field"):

            @wire_form(("height", INT))
            @dataclass(frozen=True)
            class Grown:
                height: int
                extra_field: int = 0

        assert "Grown" not in WIRE_CLASSES

    def test_a_kind_without_a_field_fails_too(self):
        with pytest.raises(TypeError, match="ghost"):

            @wire_form(("height", INT), ("ghost", INT))
            @dataclass(frozen=True)
            class Shrunk:
                height: int

    @pytest.mark.parametrize("class_name", sorted(WIRE_CLASSES))
    def test_every_wire_key_is_state_or_a_declared_extra(self, class_name):
        cls = WIRE_CLASSES[class_name]
        wire = BUILDERS[class_name]().to_wire()
        assert set(cls.WIRE_EXTRAS) <= set(wire)
        for key in cls.WIRE_EXTRAS:  # not state: the decoder must not need it
            del wire[key]
        assert cls.from_wire(wire) == BUILDERS[class_name]()

    def test_each_class_compiles_its_methods_under_its_own_file_name(self):
        """A profile keys a function by (file, line, name), so two classes'
        derived methods must not share a file name."""
        assert Block.from_wire.__code__.co_filename == "<wire_form Block>"
        assert Transaction.to_wire.__code__.co_filename == "<wire_form Transaction>"
        names = {cls.from_wire.__code__.co_filename for cls in WIRE_CLASSES.values()}
        assert len(names) == len(WIRE_CLASSES)


@pytest.mark.parametrize("class_name", sorted(WIRE_CLASSES))
def test_round_trip(class_name):
    instance = BUILDERS[class_name]()
    decoded = WIRE_CLASSES[class_name].from_wire(instance.to_wire())
    assert decoded == instance
    # And the re-encoded wire form is identical (encode is a fixpoint).
    assert decoded.to_wire() == instance.to_wire()


@pytest.mark.parametrize("class_name", sorted(WIRE_CLASSES))
def test_round_trip_through_bytes_re_encodes_to_the_same_bytes(class_name):
    instance = BUILDERS[class_name]()
    encoded = canonical_encode(instance.to_wire())
    decoded = WIRE_CLASSES[class_name].from_wire(canonical_decode(encoded))
    assert canonical_encode(decoded.to_wire()) == encoded


@pytest.mark.parametrize("class_name", sorted(WIRE_CLASSES))
def test_decoders_are_strict_on_garbage(class_name):
    for garbage in ({}, None, [], "block", 7):
        with pytest.raises(ValidationError):
            WIRE_CLASSES[class_name].from_wire(garbage)


def test_optional_fields_round_trip_as_none():
    block = Block(
        height=0,
        transactions=(),
        roots={},
        decision=BlockDecision.ABORT,
        previous_hash=b"\x00" * 32,
        cosign=None,
        group=None,
    )
    assert WIRE_CLASSES["Block"].from_wire(block.to_wire()) == block
    outcome = TxnOutcome(txn_id="t9", status="aborted")
    assert WIRE_CLASSES["TxnOutcome"].from_wire(outcome.to_wire()) == outcome


@pytest.mark.parametrize(
    "class_name, path, hostile",
    [
        # Bytes group members used to decode, then raise AttributeError from
        # Block._group_body_parts once anyone hashed the block.
        ("Block", ("body", "group"), [b"s0", b"s1"]),
        ("Block", ("body", "roots"), {b"s0": b"\x01" * 32}),
        ("Block", ("body", "height"), "4"),
        # An unhashable item id used to surface as TypeError in items_accessed().
        ("Transaction", ("read_set", 0, "item_id"), ["x1"]),
        ("Transaction", ("write_set", 0, "item_id"), {"x": 1}),
        ("Transaction", ("txn_id",), 7),
        ("Transaction", ("client_id",), b"c1"),
        ("Transaction", ("commit_ts",), "5c"),
        ("ReadOp", ("item_id",), ["x1"]),
        ("CollectiveSignature", ("signers",), "s0"),
        # A scalar that does not fit its 32-byte encoding used to decode, then
        # raise OverflowError from block_hash().
        ("CollectiveSignature", ("challenge",), -1),
        ("CollectiveSignature", ("response",), 1 << 256),
    ],
)
def test_identifiers_and_integers_are_checked_not_coerced(class_name, path, hostile):
    wire = BUILDERS[class_name]().to_wire()
    node = wire
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = hostile
    with pytest.raises(ValidationError):
        WIRE_CLASSES[class_name].from_wire(wire)
