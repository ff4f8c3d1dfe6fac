"""The generic decoder as it read the format before it dispatched on the tag
byte: the oracle for :mod:`repro.common.encoding`'s walk.

It compares one-byte slices against the tag constants, reads every length
through ``_read_length``, decodes every dict key by a recursive call and
parses a number from its ASCII text.  It shares no code with the module under
test, so ``tests/common/test_decoder_oracle.py`` can hold the faster walk to
exactly this one: the same values, the same end offsets, the same refusals.
"""

from __future__ import annotations

import struct
from typing import Any

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_FLOAT = b"D"
_TAG_STR = b"S"
_TAG_BYTES = b"B"
_TAG_LIST = b"L"
_TAG_DICT = b"M"


def _read_length(data: bytes, offset: int) -> tuple:
    if offset + 4 > len(data):
        raise ValueError("truncated canonical encoding (missing length prefix)")
    (length,) = struct.unpack_from(">I", data, offset)
    return length, offset + 4


def _decode_at(data: bytes, offset: int) -> tuple:
    """Decode one value starting at ``offset``; returns ``(value, next_offset)``."""
    if offset >= len(data):
        raise ValueError("truncated canonical encoding (missing type tag)")
    tag = data[offset : offset + 1]
    offset += 1
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag in (_TAG_INT, _TAG_FLOAT, _TAG_STR, _TAG_BYTES):
        length, offset = _read_length(data, offset)
        end = offset + length
        if end > len(data):
            raise ValueError("truncated canonical encoding (payload shorter than prefix)")
        payload = data[offset:end]
        if tag == _TAG_STR:
            return payload.decode("utf-8"), end
        if tag == _TAG_BYTES:
            return payload, end
        # A number has one spelling, the one the encoder writes: anything else
        # int() or float() would accept ("007", "+7", "1_0", "1e0") is refused.
        parse, spell = (int, str) if tag == _TAG_INT else (float, repr)
        text = payload.decode("ascii")
        number = parse(text)
        if spell(number) != text:
            raise ValueError(f"non-canonical number {text!r} in canonical encoding")
        return number, end
    if tag == _TAG_LIST:
        length, offset = _read_length(data, offset)
        items = []
        for _ in range(length):
            item, offset = _decode_at(data, offset)
            items.append(item)
        return items, offset
    if tag == _TAG_DICT:
        length, offset = _read_length(data, offset)
        result = {}
        previous = None
        for _ in range(length):
            start = offset
            key, offset = _decode_at(data, offset)
            if isinstance(key, (list, dict)):
                raise ValueError("canonical encoding uses a container as a dict key")
            encoded_key = data[start:offset]
            if previous is not None and encoded_key <= previous:
                raise ValueError("dict entries of a canonical encoding out of order or repeated")
            previous = encoded_key
            result[key], offset = _decode_at(data, offset)
        if len(result) != length:  # keys that differ in bytes yet are equal: 1, 1.0, True
            raise ValueError("canonical encoding repeats a dict key")
        return result, offset
    raise ValueError(f"unknown canonical-encoding tag {tag!r}")


def decode_at(data: bytes, offset: int) -> tuple:
    """Decode the one value that starts at ``offset``: ``(value, next offset)``.

    The way in for a reader that walks a declared layout and meets a value
    the declaration leaves open (see :mod:`repro.common.wire`).  Like
    :func:`canonical_encode` it is only the door: the walk recurses through
    the private ``_decode_at``.  Raises what the walk raises (``ValueError``,
    and ``RecursionError`` on nesting deeper than the stack -- the caller's
    boundary turns both into its own refusal).
    """
    return _decode_at(data, offset)


def canonical_decode(data: bytes) -> Any:
    """Decode one canonically encoded value; the inverse of :func:`canonical_encode`.

    Tuples come back as lists and wire objects as the plain structure their
    ``to_wire()`` produces -- callers reconstruct domain objects from those
    with the class's ``from_wire`` (see :mod:`repro.common.wire`).  Whatever
    decodes re-encodes to exactly ``data``.
    """
    try:
        value, offset = _decode_at(bytes(data), 0)
    except RecursionError:  # caught here, at the boundary: the walk itself pays nothing
        raise ValueError("canonical encoding nests deeper than the decoder follows") from None
    if offset != len(data):
        raise ValueError(
            f"canonical encoding carries {len(data) - offset} trailing byte(s)"
        )
    return value
