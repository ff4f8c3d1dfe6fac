"""The generic walk against the walk it replaced.

``repro.common.encoding`` dispatches on the tag byte, reads every length with
one precompiled struct, reads a ``str`` dict key in place and parses an int
from its bytes.  ``reference_decoder`` is the walk before that, kept verbatim.
On every input -- a valid encoding, one whose numbers and dict entries took a
liberty, one damaged at the byte level -- both return the same value and the
same end offset, or both refuse with the same ``ValueError`` message.
"""

from __future__ import annotations

import pytest
import reference_decoder as reference
from hypothesis import given, settings
from hypothesis import strategies as st
from test_encoding import _numeric_values, _respell, _values

from repro.common import encoding
from repro.common.encoding import canonical_encode


def _typed(value):
    """``value`` with every type spelled out: ``1``, ``1.0`` and ``True`` differ."""
    if isinstance(value, list):
        return ("list", [_typed(item) for item in value])
    if isinstance(value, dict):
        return ("dict", [(_typed(key), _typed(item)) for key, item in value.items()])
    if isinstance(value, float):
        return ("float", repr(value))
    return (type(value).__name__, value)


def _outcome(decode, data, *offset):
    try:
        result = decode(data, *offset)
    except ValueError as exc:
        return ("refused", type(exc).__name__, str(exc))
    if offset:
        value, end = result
        return ("read", _typed(value), end)
    return ("read", _typed(result))


def _agree(data: bytes) -> None:
    assert _outcome(encoding.decode_at, data, 0) == _outcome(reference.decode_at, data, 0)
    assert _outcome(encoding.canonical_decode, data) == _outcome(
        reference.canonical_decode, data
    )


def _damaged(data, value) -> bytes:
    """``canonical_encode(value)`` with a few bytes set, dropped or inserted,
    or cut short."""
    encoded = bytearray(canonical_encode(value))
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        edit = data.draw(st.sampled_from(["set", "drop", "insert", "truncate"]), label="edit")
        position = data.draw(st.integers(0, len(encoded)), label="position")
        byte = data.draw(st.sampled_from(b"NTFIDSBLM019+-_ .e\x00\x01\x02\xff"), label="byte")
        if edit == "insert":
            encoded.insert(position, byte)
        elif edit == "truncate":
            del encoded[position:]
        elif position < len(encoded):
            if edit == "set":
                encoded[position] = byte
            else:
                del encoded[position]
    return bytes(encoded)


class TestTheReferenceWalkAgrees:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_values)
    def test_on_valid_encodings(self, value):
        _agree(canonical_encode(value))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_numeric_values, st.data())
    def test_on_respelled_encodings(self, value, data):
        _agree(_respell(value, lambda options: data.draw(st.sampled_from(options))))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(_values, _numeric_values), st.data())
    def test_on_damaged_encodings(self, value, data):
        _agree(_damaged(data, value))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_values, st.binary(max_size=6), st.binary(max_size=6))
    def test_at_an_offset_inside_other_bytes(self, value, before, after):
        data = before + canonical_encode(value) + after
        offset = len(before)
        assert _outcome(encoding.decode_at, data, offset) == _outcome(
            reference.decode_at, data, offset
        )

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"Z",
            b"S\x00\x00",
            b"S\x00\x00\x00\x09ab",
            b"S\x00\x00\x00\x01\xff",
            b"I\x00\x00\x00\x03007",
            b"I\x00\x00\x00\x02\xd9\xa1",
            b"I\x00\x00\x00\x03abc",
            b"D\x00\x00\x00\x031e0",
            b"M\x00\x00\x00\x01S\x00\x00",
            b"M\x00\x00\x00\x01S\x00\x00\x00\x05k",
            b"M\x00\x00\x00\x01S\x00\x00\x00\x01\xffN",
            b"M\x00\x00\x00\x01L\x00\x00\x00\x00N",
            b"M\x00\x00\x00\x01M\x00\x00\x00\x00N",
            b"M\x00\x00\x00\x02S\x00\x00\x00\x01bNS\x00\x00\x00\x01aN",
            b"M\x00\x00\x00\x02I\x00\x00\x00\x011NTN",
            b"L\x00\x00\x00\x02N",
            b"NN",
        ],
    )
    def test_on_each_refusal(self, data):
        _agree(data)
