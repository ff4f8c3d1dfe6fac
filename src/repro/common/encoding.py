"""Canonical, deterministic byte encoding.

Every object that is hashed or signed in Fides (blocks, messages, read/write
sets, Merkle leaves) must have a single canonical byte representation, or two
correct servers could compute different hashes for the same logical content
and falsely accuse each other.  This module provides a small, dependency-free
canonical encoder:

* ``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes`` are encoded with a
  one-byte type tag followed by a length-prefixed payload.
* ``list`` / ``tuple`` encode their length then each element.
* ``dict`` encodes entries sorted by the encoded key, making the encoding
  independent of insertion order.
* A wire class -- one that declares its form with
  :func:`repro.common.wire.wire_form` -- is encoded as its ``to_wire()``.
  Nothing else with a ``to_wire`` attribute is: a declared class comes with
  its strict decoder, a hand-rolled method would not.

The format is not meant to be a general interchange format -- only to be
deterministic, unambiguous (length-prefixed, so no delimiter injection), and
cheap.

:func:`canonical_decode` is the exact inverse for the plain-data subset
(``to_wire`` objects decode back as the dict/list they produced): it powers
the durable state layer (:mod:`repro.recovery`), whose write-ahead log must
round-trip blocks and checkpoints through bytes.  Decoding is strict --
unknown tags, trailing bytes, or truncated payloads raise ``ValueError`` --
because the decoder's inputs (WAL files, catch-up payloads) are untrusted.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.common.wire import WIRE_CLASSES

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_FLOAT = b"D"
_TAG_STR = b"S"
_TAG_BYTES = b"B"
_TAG_LIST = b"L"
_TAG_DICT = b"M"


def _length_prefixed(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


def canonical_encode(value: Any) -> bytes:
    """Return the canonical byte encoding of ``value``.

    Raises
    ------
    TypeError
        If ``value`` (or anything nested inside it) is neither plain data
        nor an instance of a registered wire class.
    """
    if value is None:
        return _TAG_NONE
    if value is True:
        return _TAG_TRUE
    if value is False:
        return _TAG_FALSE
    if isinstance(value, int):
        payload = str(value).encode("ascii")
        return _TAG_INT + _length_prefixed(payload)
    if isinstance(value, float):
        # repr() round-trips floats exactly in Python 3 and is deterministic.
        payload = repr(value).encode("ascii")
        return _TAG_FLOAT + _length_prefixed(payload)
    if isinstance(value, str):
        return _TAG_STR + _length_prefixed(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray, memoryview)):
        return _TAG_BYTES + _length_prefixed(bytes(value))
    if isinstance(value, (list, tuple)):
        parts = [_TAG_LIST, struct.pack(">I", len(value))]
        parts.extend(canonical_encode(item) for item in value)
        return b"".join(parts)
    if isinstance(value, dict):
        encoded_items = sorted(
            (canonical_encode(key), canonical_encode(val)) for key, val in value.items()
        )
        parts = [_TAG_DICT, struct.pack(">I", len(encoded_items))]
        for key_bytes, val_bytes in encoded_items:
            parts.append(key_bytes)
            parts.append(val_bytes)
        return b"".join(parts)
    if WIRE_CLASSES.get(type(value).__name__) is type(value):
        # Immutable wire objects (frozen dataclasses that are never mutated,
        # only rebuilt via ``dataclasses.replace``) can opt into a
        # per-instance encoding cache by setting ``CANONICAL_CACHEABLE``.
        # The scaled deployment broadcasts the same Block object to every
        # server, so without the cache one ordered-block delivery re-encodes
        # the block once per recipient.
        if getattr(value, "CANONICAL_CACHEABLE", False):
            cached = value.__dict__.get("_canonical_cache")
            if cached is not None:
                return cached
            encoded = canonical_encode(value.to_wire())
            object.__setattr__(value, "_canonical_cache", encoded)
            return encoded
        return canonical_encode(value.to_wire())
    raise TypeError(f"cannot canonically encode object of type {type(value).__name__}")


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
        if tag == _TAG_INT:
            return int(payload.decode("ascii")), end
        if tag == _TAG_FLOAT:
            return float(payload.decode("ascii")), end
        if tag == _TAG_STR:
            return payload.decode("utf-8"), end
        return bytes(payload), end
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
        for _ in range(length):
            key, offset = _decode_at(data, offset)
            if isinstance(key, (list, dict)):
                raise ValueError("canonical encoding uses a container as a dict key")
            value, offset = _decode_at(data, offset)
            result[key] = value
        return result, offset
    raise ValueError(f"unknown canonical-encoding tag {tag!r}")


def canonical_decode(data: bytes) -> Any:
    """Decode one canonically encoded value; the inverse of :func:`canonical_encode`.

    Tuples come back as lists and ``to_wire`` objects as the plain structure
    their ``to_wire()`` produced -- callers reconstruct domain objects from
    those with the class's ``from_wire`` (see :mod:`repro.common.wire`).
    """
    value, offset = _decode_at(bytes(data), 0)
    if offset != len(data):
        raise ValueError(
            f"canonical encoding carries {len(data) - offset} trailing byte(s)"
        )
    return value
