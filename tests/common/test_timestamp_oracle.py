"""The one-step timestamp codec against the reader and the walker it replaced.

:data:`repro.common.wire.TIMESTAMP` reads a stamp in one step -- the genesis
stamp's constant bytes, or the pair, int and str heads inline -- and writes
one by packing those heads directly.  ``reference_timestamp`` is the reader
before that, kept verbatim.  On every input -- a valid stamp, one whose
counter is spelled another way, one damaged at the byte level -- both readers
return equal stamps and the same end offset, or both refuse with the same
message; and the writer's bytes are the walker's.
"""

from __future__ import annotations

import struct

import pytest
import reference_timestamp as reference
from hypothesis import given, settings
from hypothesis import strategies as st
from test_decoder_oracle import _damaged

from repro.common.encoding import canonical_encode
from repro.common.errors import ValidationError
from repro.common.timestamps import Timestamp
from repro.common.wire import TIMESTAMP

#: The genesis stamp, its two neighbours, and stamps of any counter and id.
_stamps = st.one_of(
    st.sampled_from([Timestamp.zero(), Timestamp(0, "a"), Timestamp(1, "")]),
    st.builds(Timestamp, st.integers(0, 2**70), st.text(max_size=6)),
)


def _encoded(stamp: Timestamp) -> bytes:
    return canonical_encode(list(stamp.as_tuple()))


def _outcome(read, data, offset=0):
    try:
        stamp, end = read(data, offset)
    except (ValidationError, ValueError, IndexError, struct.error) as exc:
        return ("refused", type(exc).__name__, str(exc))
    return ("read", stamp.counter, stamp.client_id, end)


def _agree(data: bytes, offset: int = 0) -> None:
    mine = _outcome(TIMESTAMP.read, data, offset)
    assert mine == _outcome(reference.read_timestamp, data, offset)
    if mine[0] == "read" and mine[1:3] == (0, ""):
        assert TIMESTAMP.read(data, offset)[0] is Timestamp.zero()


def _respelled(stamp: Timestamp, counter: bytes) -> bytes:
    """``stamp``'s encoding with its counter written as ``counter``."""
    head = struct.pack(">BI", ord("L"), 2) + struct.pack(">BI", ord("I"), len(counter))
    return head + counter + canonical_encode(stamp.client_id)


class TestTheReferenceReaderAgrees:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_stamps)
    def test_on_valid_encodings(self, stamp):
        data = _encoded(stamp)
        _agree(data)
        assert TIMESTAMP.read(data, 0) == (stamp, len(data))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_stamps, st.sampled_from(["0%d", "+%d", "-%d", " %d", "%d_0", "%d "]))
    def test_on_respelled_counters(self, stamp, spelling):
        _agree(_respelled(stamp, (spelling % stamp.counter).encode()))

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_stamps, st.data())
    def test_on_damaged_encodings(self, stamp, data):
        _agree(_damaged(data, list(stamp.as_tuple())))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_stamps, st.binary(max_size=6), st.binary(max_size=6))
    def test_at_an_offset_inside_other_bytes(self, stamp, before, after):
        _agree(before + _encoded(stamp) + after, len(before))

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"L\x00\x00\x00\x02",
            b"L\x00\x00\x00\x03I\x00\x00\x00\x010S\x00\x00\x00\x00",
            b"L\x00\x00\x00\x02I\x00\x00\x00\x010S\x00\x00\x00",
            b"L\x00\x00\x00\x02I\x00\x00\x00\x010S\x00\x00\x00\x01",
            b"L\x00\x00\x00\x02I\x00\x00\x00\x020S\x00\x00\x00\x00",
            b"L\x00\x00\x00\x02I\x00\x00\x00\x02-0S\x00\x00\x00\x00",
            b"L\x00\x00\x00\x02I\x00\x00\x00\x02-5S\x00\x00\x00\x00",
            b"L\x00\x00\x00\x02I\x00\x00\x00\x02-5S\x00\x00\x00\x01\xff",
            b"L\x00\x00\x00\x02I\x00\x00\x00\x02-5N",
            b"L\x00\x00\x00\x02S\x00\x00\x00\x010S\x00\x00\x00\x00",
            b"L\x00\x00\x00\x02I\x00\x00\x00\x010B\x00\x00\x00\x00",
            b"L\x00\x00\x00\x02I\x00\x00\x00\x010S\x00\x00\x00\x01\xff",
        ],
    )
    def test_on_each_refusal(self, data):
        _agree(data)


class TestTheWriterIsTheWalker:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_stamps)
    def test_written_bytes_are_canonical_encode_of_the_pair(self, stamp):
        assert TIMESTAMP.write(stamp) == _encoded(stamp)

    def test_a_genesis_stamp_that_is_not_the_shared_object(self):
        stamp = Timestamp(0, "")
        assert stamp is not Timestamp.zero()
        assert TIMESTAMP.write(stamp) == TIMESTAMP.write(Timestamp.zero()) == _encoded(stamp)
