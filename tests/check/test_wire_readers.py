"""The derived byte reader against its oracle, and against its own encoder.

``wire_form`` derives ``from_bytes()`` from the declaration ``wire_bytes()``
is derived from: the keys of a declared form stand in one order, so
everything between two field values is a constant, and reading is
``startswith`` plus the field's own reader.  No plain tree is built.  Two
things make that safe to put under crash recovery:

* **the oracle** -- ``from_wire(canonical_decode(data))``, the generic walk
  followed by the strict plain-data decoder, which no derived reader calls
  for a declared layout.  On every input, valid or hostile, the two agree:
  both refuse, or both return equal objects;
* **exactness** -- whatever ``from_bytes`` accepts re-encodes to the bytes it
  was read from (modulo a class's ``WIRE_EXTRAS``, as the fuzz suite defines
  *faithful*), so a payload that was read may be kept instead of re-encoded.

A refusal is always ``ValidationError`` and says at which byte reading stopped.
"""

from __future__ import annotations

import re
import struct
import tracemalloc
from types import FunctionType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import SystemConfig
from repro.common.encoding import canonical_decode, canonical_encode
from repro.common.errors import ValidationError
from repro.common.wire import INT, STR, WIRE_CLASSES, list_of, map_of, nested, sibling_reader
from repro.core.fides import FidesSystem
from repro.ledger.block import Block
from repro.net.latency import ConstantLatency
from repro.recovery import wire as recovery_wire
from repro.recovery.statestore import BlockRecord, SnapshotRecord
from repro.storage.record import RecordVersion
from repro.txn.transaction import Transaction
from repro.workload.ycsb import YcsbWorkload

from test_wire_ownership import _SPARSE, _blocks, _digests, _snapshot_records, _transactions
from test_wire_roundtrip import BUILDERS
from store_helpers import journal

_REFUSED = object()


def oracle(cls, data: bytes):
    """The reference reader: the generic walk, then the strict plain-data decoder."""
    return cls.from_wire(canonical_decode(data))


def attempt(reader, cls, data: bytes):
    try:
        return reader(cls, data)
    except (ValidationError, ValueError):  # ValueError: canonical_decode's refusal
        return _REFUSED


def state_bytes(cls, data: bytes) -> bytes:
    """``data`` without the keys that are not state (a faithful re-encoding may drop them)."""
    if not cls.WIRE_EXTRAS:
        return data
    wire = canonical_decode(data)
    return canonical_encode({key: wire[key] for key in wire if key not in cls.WIRE_EXTRAS})


def assert_reader_agrees_and_is_exact(cls, data: bytes) -> bool:
    """``from_bytes`` and the oracle on ``data``; True if they accepted it."""
    try:
        read = cls.from_bytes(data)
    except ValidationError:  # nothing else may come out
        read = _REFUSED
    reference = attempt(oracle, cls, data)
    assert (read is _REFUSED) == (reference is _REFUSED), (cls.__name__, data, read, reference)
    if read is _REFUSED:
        return False
    assert type(read) is cls
    assert canonical_encode(read) == canonical_encode(reference)
    assert state_bytes(cls, canonical_encode(read)) == state_bytes(cls, data), (cls.__name__, data)
    return True


class TestEveryClassReadsItsOwnBytes:
    @pytest.mark.parametrize("class_name", sorted(WIRE_CLASSES))
    def test_builder_instance(self, class_name):
        cls, instance = WIRE_CLASSES[class_name], BUILDERS[class_name]()
        data = canonical_encode(instance)
        # (Against the oracle, not the builder: a certificate's head block is
        # kept as plain data, whose tuples come back from bytes as lists.)
        assert cls.from_bytes(data) == oracle(cls, data)
        assert canonical_encode(cls.from_bytes(data)) == data
        assert assert_reader_agrees_and_is_exact(cls, data)

    @pytest.mark.parametrize("class_name", sorted(_SPARSE))
    def test_absent_optionals(self, class_name):
        cls, instance = WIRE_CLASSES[class_name], _SPARSE[class_name]()
        assert cls.from_bytes(canonical_encode(instance)) == instance

    @pytest.mark.parametrize("class_name", sorted(WIRE_CLASSES))
    def test_any_buffer_of_the_same_bytes_reads_the_same(self, class_name):
        cls, instance = WIRE_CLASSES[class_name], BUILDERS[class_name]()
        data = canonical_encode(instance)
        expected = oracle(cls, data)
        assert cls.from_bytes(bytearray(data)) == cls.from_bytes(memoryview(data)) == expected

    @pytest.mark.parametrize("class_name", sorted(WIRE_CLASSES))
    def test_read_bytes_reads_one_value_at_an_offset(self, class_name):
        """What a container's reader calls: the object and the offset after it."""
        cls, instance = WIRE_CLASSES[class_name], BUILDERS[class_name]()
        data = canonical_encode(instance)
        assert cls.read_bytes(b"junk" + data + b"more", 4) == (oracle(cls, data), 4 + len(data))

    def test_sibling_forms_are_told_apart_by_how_they_open(self):
        read = sibling_reader(BlockRecord, SnapshotRecord)
        for cls in (BlockRecord, SnapshotRecord, BlockRecord):
            instance = BUILDERS[cls.__name__]()
            assert canonical_encode(instance).startswith(cls.WIRE_PREFIX)
            assert read(canonical_encode(instance)) == instance
        read_op = sibling_reader(WIRE_CLASSES["ReadOp"], WIRE_CLASSES["WriteOp"])
        assert read_op(canonical_encode(BUILDERS["WriteOp"]())) == BUILDERS["WriteOp"]()
        # A refusal comes from the form the bytes follow furthest.
        with pytest.raises(ValidationError, match="SnapshotRecord"):
            read(canonical_encode(BUILDERS["SnapshotRecord"]())[:-1])
        with pytest.raises(ValidationError, match="BlockRecord"):
            read(canonical_encode({"kind": "block"}))
        with pytest.raises(TypeError, match="open with different"):
            sibling_reader(WIRE_CLASSES["ReadSetEntry"], WIRE_CLASSES["ReadResult"])


_block_records = st.builds(BlockRecord, block=_blocks, shard_root=_digests)


class TestGeneratedObjectsReadBack:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_transactions)
    def test_transactions(self, txn):
        data = canonical_encode(txn)
        assert Transaction.from_bytes(data) == txn == oracle(Transaction, data)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_blocks)
    def test_blocks(self, block):
        data = canonical_encode(block)
        assert Block.from_bytes(data) == block == oracle(Block, data)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_block_records)
    def test_block_records(self, record):
        data = canonical_encode(record)
        assert BlockRecord.from_bytes(data) == record == oracle(BlockRecord, data)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_snapshot_records)
    def test_snapshot_records(self, record):
        data = canonical_encode(record)
        assert SnapshotRecord.from_bytes(data) == record == oracle(SnapshotRecord, data)


def _mutate(data: bytes, draw) -> bytes:
    """One edit of ``data``: a byte substituted, a slice dropped or doubled, a tail cut."""
    edit = draw(st.sampled_from(("substitute", "substitute", "drop", "double", "cut")))
    at = draw(st.integers(0, len(data) - 1))
    if edit == "substitute":
        value = draw(st.sampled_from(tuple(b"NTFIDSBLM\x00\x01\x02\xff") + (data[at] ^ 1,)))
        return data[:at] + bytes([value]) + data[at + 1 :]
    if edit == "cut":
        return data[:at]
    end = at + draw(st.integers(1, 12))
    return data[:at] + data[end:] if edit == "drop" else data[:end] + data[at:]


class TestHostileBytes:
    @pytest.mark.parametrize("class_name", sorted(WIRE_CLASSES))
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_mutated_encodings_are_refused_or_read_as_the_oracle_reads_them(self, class_name, data):
        cls = WIRE_CLASSES[class_name]
        mutant = canonical_encode(BUILDERS[class_name]())
        for _ in range(data.draw(st.integers(1, 3))):
            if mutant:
                mutant = _mutate(mutant, data.draw)
        assert_reader_agrees_and_is_exact(cls, mutant)

    @pytest.mark.parametrize("class_name", sorted(WIRE_CLASSES))
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(blob=st.binary(max_size=48))
    def test_random_bytes(self, class_name, blob):
        assert_reader_agrees_and_is_exact(WIRE_CLASSES[class_name], blob)

    @pytest.mark.parametrize("class_name", sorted(WIRE_CLASSES))
    def test_every_prefix_and_trailing_bytes_are_refused(self, class_name):
        cls = WIRE_CLASSES[class_name]
        data = canonical_encode(BUILDERS[class_name]())
        for end in range(len(data)):
            with pytest.raises(ValidationError):
                cls.from_bytes(data[:end])
        for tail in (b"N", b"\x00", data):
            with pytest.raises(ValidationError, match="trailing"):
                cls.from_bytes(data + tail)

    @pytest.mark.parametrize("class_name", sorted(WIRE_CLASSES))
    def test_a_refusal_says_where_reading_stopped(self, class_name):
        cls = WIRE_CLASSES[class_name]
        data = canonical_encode(BUILDERS[class_name]())
        for at in range(0, len(data), 5):
            mutant = data[:at] + bytes([data[at] ^ 0x5A]) + data[at + 1 :]
            try:
                cls.from_bytes(mutant)
            except ValidationError as exc:
                (stopped,) = re.findall(r"\(at byte (\d+)\)", str(exc))
                assert 0 <= int(stopped) <= len(mutant), (at, str(exc))


def _real_journal() -> list:
    """The payloads a server's state store holds after a few committed blocks."""
    config = SystemConfig(
        num_servers=3, items_per_shard=5, txns_per_block=2, ops_per_txn=2,
        multi_versioned=True, message_signing="hash", seed=31,
    )
    system = FidesSystem(config, latency=ConstantLatency(0.0002))
    workload = YcsbWorkload(
        item_ids=system.shard_map.all_items(), ops_per_txn=2, conflict_free_window=0, seed=31
    )
    assert system.run_workload(workload.generate(4)).committed == 4
    return journal(system.server("s1").state_store)


class TestExactnessOnRealRecords:
    """Every prefix and, at every position, six substituted bytes of one real
    block record and one real snapshot record: refused, or re-encoded to the
    input -- and the oracle says the same."""

    @pytest.fixture(scope="class")
    def journal(self):
        return _real_journal()

    @pytest.mark.parametrize("cls, index", [(SnapshotRecord, 0), (BlockRecord, 2)])
    def test_prefixes_and_substitutions(self, journal, cls, index):
        payload = journal[index]
        assert canonical_encode(cls.from_bytes(payload)) == payload
        accepted = 0
        for end in range(len(payload)):
            with pytest.raises(ValidationError):
                cls.from_bytes(payload[:end])
        for at, byte in enumerate(payload):
            for value in {byte ^ 0x01, byte ^ 0x80, 0x00, 0xFF, ord("N"), ord("S")} - {byte}:
                mutant = payload[:at] + bytes([value]) + payload[at + 1 :]
                accepted += assert_reader_agrees_and_is_exact(cls, mutant)
        assert accepted  # a substituted value byte is still a valid record


def _with_count(data: bytes, header: bytes, count: int) -> bytes:
    """``data`` with the first list/map header ``header`` claiming ``count`` entries."""
    at = data.index(header)
    return data[: at + 1] + struct.pack(">I", count) + data[at + 5 :]


class TestALyingCountRunsOutOfBytesNotOfMemory:
    @pytest.mark.parametrize(
        "class_name, header",
        [
            ("CollectiveSignature", b"L\x00\x00\x00\x03"),  # list_of(STR), direct
            ("Transaction", b"L\x00\x00\x00\x01"),  # list_of(nested(...))
            ("SnapshotRecord", b"M\x00\x00\x00\x03"),  # map_of(...): the item map
            ("Checkpoint", b"M\x00\x00\x00\x01"),  # ROOTS
            ("Envelope", b"M\x00\x00\x00\x01"),  # an ANY payload: the generic walk
            ("VerificationObject", b"L\x00\x00\x00\x02"),  # a kind read through the walk
        ],
    )
    def test_a_header_claiming_four_billion_entries(self, class_name, header):
        cls = WIRE_CLASSES[class_name]
        data = _with_count(canonical_encode(BUILDERS[class_name]()), header, 2**32 - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError):
                cls.from_bytes(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        with pytest.raises(ValueError):
            canonical_decode(data)


def _entries(*pairs) -> bytes:
    """A dict encoding with its entries in the order given, right or wrong."""
    return b"M" + struct.pack(">I", len(pairs)) + b"".join(
        canonical_encode(key) + canonical_encode(value) for key, value in pairs
    )


class TestTheTypedMap:
    COUNTS = map_of(INT)

    def read(self, data: bytes):
        return self.COUNTS.read(data, 0)

    def test_it_reads_what_the_encoder_writes(self):
        counts = {"b": 2, "a": 1, "aa": 3, "": 0}
        data = canonical_encode(counts)
        assert self.read(data) == (counts, len(data))
        assert list(self.read(data)[0]) == ["", "a", "b", "aa"]  # the wire order: by encoded key
        assert self.read(canonical_encode({})) == ({}, 5)

    @pytest.mark.parametrize(
        "data",
        [
            _entries(("b", 2), ("a", 1)),
            _entries(("aa", 2), ("b", 1)),  # shorter keys sort first, whatever their letters
            _entries(("a", 1), ("a", 1)),
            _entries(("a", 1), ("a", 2)),
            _entries((1, 1)),
            _entries((b"a", 1)),
            _entries((None, 1)),
            _entries(("a", "1")),
            _entries(("a", True)),
            canonical_encode([["a", 1]]),
            canonical_encode(None),
        ],
        ids=[
            "out-of-order", "longer-first", "repeated", "repeated-key", "int-key", "bytes-key",
            "none-key", "str-value", "bool-value", "a-list", "none",
        ],
    )
    def test_it_refuses(self, data):
        with pytest.raises(ValidationError, match=r"\(at byte \d+\)"):
            self.read(data)
        # ... as the oracle does, through the generic walk or the kind's check.
        try:
            plain = canonical_decode(data)
        except ValueError:
            return
        with pytest.raises(ValidationError):
            self.COUNTS.decode(plain, "counts")

    def test_plain_data_is_checked_the_same_way(self):
        assert self.COUNTS.decode({"b": 2, "a": 1}, "counts") == {"a": 1, "b": 2}
        for hostile in ({1: 1}, {b"a": 1}, {"a": "1"}, [("a", 1)], None):
            with pytest.raises(ValidationError):
                self.COUNTS.decode(hostile, "counts")

    def test_a_map_of_wire_objects_is_spliced_and_flattened(self):
        kind = map_of(list_of(nested(RecordVersion)))
        version = BUILDERS["RecordVersion"]()
        assert kind.spliced
        assert kind.encode({"x2": (version,), "x1": ()}) == {"x1": [], "x2": [version.to_wire()]}
        data = canonical_encode({"x1": [], "x2": [version]})
        assert kind.read(data, 0) == ({"x1": (), "x2": (version,)}, len(data))

    def test_roots_is_a_typed_map(self):
        block = BUILDERS["Block"]()
        data = canonical_encode(block)
        swapped = data.replace(
            canonical_encode("s0") + canonical_encode(b"\x01" * 32)
            + canonical_encode("s1") + canonical_encode(b"\x02" * 32),
            canonical_encode("s1") + canonical_encode(b"\x02" * 32)
            + canonical_encode("s0") + canonical_encode(b"\x01" * 32),
        )
        assert swapped != data and len(swapped) == len(data)
        with pytest.raises(ValidationError, match="out of order"):
            Block.from_bytes(swapped)
        assert STR.read(canonical_encode("s0"), 0) == ("s0", 7)


class TestUndeclaredKeysAreRefused:
    """Two byte strings must not decode to equal objects."""

    def test_the_block_that_used_to_decode(self):
        block = BUILDERS["Block"]()
        wire = block.to_wire()
        wire["zzz"] = 1
        wire["body"]["extra_height"] = 7
        hostile = canonical_encode(wire)
        with pytest.raises(ValidationError, match="undeclared"):
            Block.from_wire(canonical_decode(hostile))
        with pytest.raises(ValidationError):
            Block.from_bytes(hostile)
        del wire["zzz"]
        with pytest.raises(ValidationError, match="extra_height"):
            Block.from_wire(wire)
        del wire["body"]["extra_height"]
        assert Block.from_wire(wire) == block

    @pytest.mark.parametrize("class_name", sorted(WIRE_CLASSES))
    def test_a_junk_key_at_the_root_and_in_every_sub_group(self, class_name):
        cls = WIRE_CLASSES[class_name]
        groups = [()] + [
            (key,) for key in BUILDERS[class_name]().to_wire() if hasattr(cls, f"{key}_bytes")
        ]
        for path in groups:
            wire = BUILDERS[class_name]().to_wire()
            node = wire
            for key in path:
                node = node[key]
            node["zzz"] = None
            with pytest.raises(ValidationError, match="zzz"):
                cls.from_wire(wire)
            with pytest.raises(ValidationError):
                cls.from_bytes(canonical_encode(wire))

    def test_sub_groups_were_found(self):
        assert hasattr(Block, "body_bytes") and hasattr(SnapshotRecord, "datastore_bytes")

    @pytest.mark.parametrize("class_name", ["Histogram"])
    def test_a_declared_extra_may_be_there_or_not(self, class_name):
        cls, instance = WIRE_CLASSES[class_name], BUILDERS[class_name]()
        wire = instance.to_wire()
        assert cls.WIRE_EXTRAS
        assert cls.from_bytes(canonical_encode(wire)) == instance
        for key in cls.WIRE_EXTRAS:
            del wire[key]
        assert cls.from_bytes(canonical_encode(wire)) == instance
        # ... but its place is not free for an undeclared key.
        wire["zzz"] = None
        with pytest.raises(ValidationError, match="zzz"):
            cls.from_wire(wire)
        with pytest.raises(ValidationError, match="zzz"):
            cls.from_bytes(canonical_encode(wire))


class TestNestingDeeperThanTheStack:
    DEEP = b"L\x00\x00\x00\x01" * 5000 + b"N"

    def test_from_bytes_refuses_with_validation_error(self):
        entry = BUILDERS["ReadSetEntry"]()
        honest = canonical_encode(entry)
        value = canonical_encode(entry.value)
        key = canonical_encode("value")
        hostile = honest.replace(key + value, key + self.DEEP)
        assert hostile != honest
        with pytest.raises(ValidationError, match="nested too deeply"):
            type(entry).from_bytes(hostile)
        # The same value through a class that reads by the generic walk.
        with pytest.raises(ValidationError):
            WIRE_CLASSES["TxnOutcome"].from_bytes(self.DEEP)


class TestTheRecoveryWireLayerIsVisible:
    def test_its_two_entry_points_are_functions_of_that_module(self):
        """An alias of ``Block.from_wire`` is a frame no boundary tracer can book."""
        for name in ("block_from_wire", "epoch_anchor_from_wire"):
            function = getattr(recovery_wire, name)
            assert type(function) is FunctionType
            assert function.__module__ == "repro.recovery.wire"
        block, anchor = BUILDERS["Block"](), BUILDERS["EpochAnchor"]()
        assert recovery_wire.block_from_wire(block.to_wire()) == block
        assert recovery_wire.epoch_anchor_from_wire(anchor.to_wire()) == anchor
