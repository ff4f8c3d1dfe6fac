"""The timestamp reader as it was before it read a stamp in one step: the
oracle for :data:`repro.common.wire.TIMESTAMP`'s reader.

It checks the pair head, then reads the counter with ``_read_int`` and the
client id with ``_read_str``, and builds a new :class:`Timestamp` every time.
It shares no code with :mod:`repro.common.wire`, so
``tests/common/test_timestamp_oracle.py`` can hold the one-step reader to
exactly this one: the same stamps, the same end offsets, the same refusals.
"""

from __future__ import annotations

import struct

from repro.common.errors import ValidationError
from repro.common.timestamps import Timestamp

_TAG_INT, _TAG_STR, _TAG_LIST = b"ISL"
_head = struct.Struct(">BI").unpack_from
_PAIR = struct.pack(">BI", _TAG_LIST, 2)


def _stopped(reason, offset: int) -> ValidationError:
    return ValidationError(f"{reason} (at byte {offset})")


def _expected(what: str, data: bytes, offset: int) -> ValidationError:
    return _stopped(f"expected {what}, found {data[offset : offset + 5]!r}", offset)


def _read_str(data, offset):
    tag, length = _head(data, offset)
    end = offset + 5 + length
    if tag != _TAG_STR or end > len(data):
        raise _expected("a str", data, offset)
    return data[offset + 5 : end].decode(), end


def _read_int(data, offset):
    tag, length = _head(data, offset)
    end = offset + 5 + length
    if tag != _TAG_INT or end > len(data):
        raise _expected("an int", data, offset)
    text = data[offset + 5 : end]
    number = int(text)
    if b"%d" % number != text:  # one spelling per number: not "007", "+7", "1_0"
        raise _stopped(f"non-canonical number {text!r}", offset)
    return number, end


def read_timestamp(data, offset):
    if not data.startswith(_PAIR, offset):
        raise _expected("a [counter, client id] pair", data, offset)
    counter, end = _read_int(data, offset + 5)
    client_id, end = _read_str(data, end)
    if counter < 0:
        raise _stopped("a timestamp counter must be >= 0", offset)
    return Timestamp(counter, client_id), end
