"""Canonical, deterministic byte encoding.

Every object that is hashed or signed in Fides (blocks, messages, read/write
sets, Merkle leaves) must have a single canonical byte representation, or two
correct servers could compute different hashes for the same logical content
and falsely accuse each other.  This module provides a small, dependency-free
canonical encoder:

* ``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes`` are encoded with a
  one-byte type tag followed by a length-prefixed payload.  A number is
  spelled by its value -- an ``int`` in decimal, a ``float`` by
  ``float.__repr__`` -- so a subclass (an ``IntEnum`` member) encodes as the
  plain number it is, whatever its own ``__str__`` or ``__repr__`` says.
* ``list`` / ``tuple`` encode their length then each element.
* ``dict`` encodes entries sorted by the encoded key, making the encoding
  independent of insertion order.
* A wire class -- one that declares its form with
  :func:`repro.common.wire.wire_form` -- is encoded by the encoder derived
  from its declaration, which yields the bytes of its ``to_wire()`` without
  building it.  Nothing else with a ``to_wire`` attribute is encoded: a
  declared class comes with its strict decoder, a hand-rolled method would
  not.

The format is not meant to be a general interchange format -- only to be
deterministic, unambiguous (length-prefixed, so no delimiter injection), and
cheap.  There is one format and one dispatch: :data:`ENCODERS` maps an exact
type to its encoder, plain data and wire classes alike.  Nothing here stores
bytes; the one class that keeps its encoding says so in its declaration
(DESIGN.md section 6, "Who owns the bytes").

:func:`canonical_decode` is the exact inverse for the plain-data subset
(wire objects decode back as the dict/list their ``to_wire()`` produces).  It
reads bytes whose layout nobody declared -- exported logs, stored values,
message payloads -- and is the oracle for the readers that
:func:`~repro.common.wire.wire_form` derives from a declared layout, which
call :func:`decode_at` for exactly those undeclared values (the write-ahead
log of :mod:`repro.recovery` is read that way).  Decoding is strict --
unknown tags, trailing bytes, truncated payloads, nesting deeper than the
interpreter's stack and every *second spelling* of a value (``007``, ``1e0``,
dict entries out of order or repeated) raise ``ValueError`` -- because the
decoder's inputs are untrusted, and bytes that decode must re-encode to
themselves.  The walk is on the cold audit's path (every exported log is
decoded by it), so it is written for speed: it dispatches on the tag byte as
the integer ``data[offset]`` is, reads a ``str`` dict key in place -- every
key of a wire form is one -- and checks an int's spelling on its bytes.
"""

from __future__ import annotations

import struct
import sys
from typing import Any, Callable, Dict

#: The format's tag bytes, as the integers ``data[offset]`` reads.  This is
#: the one table of them: :mod:`repro.common.wire` reads and writes the same.
(
    TAG_NONE,
    TAG_TRUE,
    TAG_FALSE,
    TAG_INT,
    TAG_FLOAT,
    TAG_STR,
    TAG_BYTES,
    TAG_LIST,
    TAG_DICT,
) = b"NTFIDSBLM"


def _own(text: str) -> str:
    return text


#: What a byte reader applies to each id it decodes.  ``sys.intern`` where an
#: interned str is mortal -- freed when its last holder drops it, as on CPython
#: 3.10, 3.11 and 3.13 on -- so every decode of one id shares one str, and ids
#: from a peer's bytes cannot pin memory.  CPython 3.12 makes every interned str
#: immortal (PEP 683; ``sys.intern``'s are mortal again from 3.13, gh-113993),
#: so there, and on any other interpreter, each decode keeps its own copy.
intern_id: Callable[[str], str] = (
    sys.intern
    if sys.implementation.name == "cpython" and sys.version_info[:2] != (3, 12)
    else _own
)


#: A tagged value's head: its tag byte and the four bytes after it, its
#: payload's length or its container's count.
HEAD = struct.Struct(">BI")
_pack_head = HEAD.pack
_length_at = struct.Struct(">I").unpack_from

_NONE, _TRUE, _FALSE = bytes((TAG_NONE,)), bytes((TAG_TRUE,)), bytes((TAG_FALSE,))
#: The values that are a tag alone, and the tags a head of five bytes opens.
_BARE = {TAG_NONE: None, TAG_TRUE: True, TAG_FALSE: False}
_HEADED = frozenset((TAG_INT, TAG_FLOAT, TAG_STR, TAG_BYTES, TAG_LIST, TAG_DICT))


def _encode_int(value) -> bytes:
    # "%d" spells any int by its value: an IntEnum's or another subclass's
    # own __str__ would spell it in a way the decoder refuses.
    payload = b"%d" % value
    return _pack_head(TAG_INT, len(payload)) + payload


def _encode_float(value) -> bytes:
    # float.__repr__ round-trips floats exactly and is deterministic; a
    # subclass's own __repr__ need be neither.
    payload = float.__repr__(value).encode("ascii")
    return _pack_head(TAG_FLOAT, len(payload)) + payload


def _encode_str(value) -> bytes:
    payload = value.encode("utf-8")
    return _pack_head(TAG_STR, len(payload)) + payload


def _encode_bytes(value) -> bytes:
    payload = bytes(value)
    return _pack_head(TAG_BYTES, len(payload)) + payload


def _encode_list(value) -> bytes:
    parts = [_pack_head(TAG_LIST, len(value))]
    parts.extend(map(_encode, value))
    return b"".join(parts)


def _encode_dict(value) -> bytes:
    parts = [_pack_head(TAG_DICT, len(value))]
    for entry in sorted([(_encode(key), _encode(item)) for key, item in value.items()]):
        parts.extend(entry)
    return b"".join(parts)


#: Exact type -> its encoder.  The plain types are listed here; a wire class
#: adds the encoder :func:`~repro.common.wire.wire_form` derives for it.
ENCODERS: Dict[type, Callable[[Any], bytes]] = {
    type(None): lambda value: _NONE,
    bool: lambda value: _TRUE if value else _FALSE,
    int: _encode_int,
    float: _encode_float,
    str: _encode_str,
    bytes: _encode_bytes,
    list: _encode_list,
    tuple: _encode_list,
    dict: _encode_dict,
}

#: Subclasses of the plain types (an ``IntEnum``, a named tuple) and the other
#: byte buffers encode as what they are instances of, by their value.
_BY_INSTANCE = (
    (int, _encode_int),
    (float, _encode_float),
    (str, _encode_str),
    ((bytes, bytearray, memoryview), _encode_bytes),
    ((list, tuple), _encode_list),
    (dict, _encode_dict),
)


def _encode(value) -> bytes:
    encoder = ENCODERS.get(type(value))
    if encoder is not None:
        return encoder(value)
    for plain, encoder in _BY_INSTANCE:
        if isinstance(value, plain):
            return encoder(value)
    raise TypeError(f"cannot canonically encode object of type {type(value).__name__}")


def canonical_encode(value: Any) -> bytes:
    """Return the canonical byte encoding of ``value``.

    This is the way in from other layers; the walk itself recurses through
    the private ``_encode``, so a boundary tracer sees one call per encoding.

    Raises
    ------
    TypeError
        If ``value`` (or anything nested inside it) is neither plain data
        nor an instance of a registered wire class.
    """
    return _encode(value)


def dict_layout(entries) -> list:
    """The encoding of a dict whose keys are known before its values are.

    ``entries`` pairs each key with the pieces that stand for its value; the
    result is the pieces of the whole dict -- the count, then every encoded
    key followed by its value's pieces, in the one order the format allows.
    """
    parts = [_pack_head(TAG_DICT, len(entries))]
    for key, pieces in sorted((_encode(key), pieces) for key, pieces in entries):
        parts.append(key)
        parts.extend(pieces)
    return parts


def _decode_at(data: bytes, offset: int) -> tuple:
    """Decode one value starting at ``offset``; returns ``(value, next_offset)``."""
    size = len(data)
    if offset >= size:
        raise ValueError("truncated canonical encoding (missing type tag)")
    tag = data[offset]
    if tag in _BARE:
        return _BARE[tag], offset + 1
    if tag not in _HEADED:
        raise ValueError(f"unknown canonical-encoding tag {bytes((tag,))!r}")
    if offset + 5 > size:
        raise ValueError("truncated canonical encoding (missing length prefix)")
    (length,) = _length_at(data, offset + 1)
    offset += 5
    if tag == TAG_LIST:
        items = []
        for _ in range(length):
            item, offset = _decode_at(data, offset)
            items.append(item)
        return items, offset
    if tag == TAG_DICT:
        result = {}
        previous = b""  # every encoded key sorts after it
        for _ in range(length):
            start = offset
            if offset + 5 <= size and data[offset] == TAG_STR:
                # Every key of a wire form is a str: read it here, not by a call.
                offset += 5 + _length_at(data, offset + 1)[0]
                if offset > size:
                    raise ValueError("truncated canonical encoding (payload shorter than prefix)")
                key = intern_id(data[start + 5 : offset].decode("utf-8"))
            else:
                key, offset = _decode_at(data, offset)
                if isinstance(key, (list, dict)):
                    raise ValueError("canonical encoding uses a container as a dict key")
            encoded_key = data[start:offset]
            if encoded_key <= previous:
                raise ValueError("dict entries of a canonical encoding out of order or repeated")
            previous = encoded_key
            result[key], offset = _decode_at(data, offset)
        if len(result) != length:  # keys that differ in bytes yet are equal: 1, 1.0, True
            raise ValueError("canonical encoding repeats a dict key")
        return result, offset
    end = offset + length
    if end > size:
        raise ValueError("truncated canonical encoding (payload shorter than prefix)")
    payload = data[offset:end]
    if tag == TAG_STR:
        return payload.decode("utf-8"), end
    if tag == TAG_BYTES:
        return payload, end
    # A number has one spelling, the one the encoder writes: anything else
    # int() or float() would accept ("007", "+7", "1_0", "1e0") is refused.
    if tag == TAG_INT:
        try:  # int() reads bytes as it reads their ASCII text
            number = int(payload)
        except ValueError:
            number = None  # refused below, with the text path's message
        if number is not None and b"%d" % number == payload:
            return number, end
    parse, spell = (int, str) if tag == TAG_INT else (float, repr)
    text = payload.decode("ascii")
    number = parse(text)
    if spell(number) != text:
        raise ValueError(f"non-canonical number {text!r} in canonical encoding")
    return number, end


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
