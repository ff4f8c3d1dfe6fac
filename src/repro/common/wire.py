"""The wire form of a class, declared once.

Every block, envelope and vote needs exactly one byte form that untrusted
peers sign, hash and read back.  A wire class states that form next to its
fields::

    @wire_form(("item_id", STR), ("value", ANY), ("rts", TIMESTAMP), ("wts", TIMESTAMP))
    @dataclass(frozen=True, slots=True)
    class ReadResult: ...

and :func:`wire_form` derives the rest from the declaration, one codec per
corner of ``{plain data, bytes} x {out, in}``: ``to_wire()`` (the plain data
whose :func:`~repro.common.encoding.canonical_encode` is the byte form),
``wire_bytes()`` (those bytes, made without building the plain data: the
declared keys are encoded and ordered once, here, a field that holds wire
objects is spliced from their own bytes, and a kind with a writer of its own
-- a timestamp -- writes its field's bytes directly), the strict
``from_wire()`` that reads the plain data back, ``from_bytes()`` that reads
the bytes back without building the plain data (everything between two field
values is a constant of the declaration, so reading is
``data.startswith(constant, offset)`` and then the field's own reader), and
the entry in :data:`WIRE_CLASSES`, the only classes ``canonical_encode``
accepts -- so an encoder without an inverse cannot exist.

An entry is ``(wire key, kind)`` -- or ``(wire key, kind, attribute)`` where
the two names differ -- and a :class:`Kind` says how that field crosses the
wire.  Strict means a kind *checks and never coerces* (``str(b"s0")`` and
``int(True)`` would both "decode"), and whatever is wrong with the input, the
decoder raises :class:`~repro.common.errors.ValidationError`: its input is
bytes an attacker may have chosen, and a garbled record must never
half-materialise into a plausible-looking object.  ``from_bytes`` accepts
exactly the bytes ``wire_bytes()`` can produce, names the byte at which its
input stopped being that, and agrees with ``from_wire`` of
``canonical_decode``, its oracle, on every input.  Three entries are not
fields: :func:`sub` groups fields under one key, :func:`tag` is a constant
that tells sibling forms apart, :func:`extra` is a key that is not state.
"""

from __future__ import annotations

import struct
from dataclasses import fields, is_dataclass
from functools import wraps
from operator import attrgetter, methodcaller
from typing import Any, Callable, Dict, NamedTuple, Optional

from repro.common.encoding import (
    ENCODERS,
    HEAD,
    TAG_BYTES,
    TAG_DICT,
    TAG_FALSE,
    TAG_INT,
    TAG_LIST,
    TAG_NONE,
    TAG_STR,
    TAG_TRUE,
    canonical_encode,
    decode_at,
    dict_layout,
    intern_id,
)
from repro.common.errors import ValidationError
from repro.common.timestamps import Timestamp

#: Every wire class, by name (DESIGN.md section 6 lists them).
WIRE_CLASSES: Dict[str, type] = {}


class Kind(NamedTuple):
    """How one field crosses the wire."""

    #: ``decode(value, what)``: the attribute ``value`` becomes, or
    #: ``ValidationError`` naming ``what``.
    decode: Callable[[Any, str], Any]
    #: Attribute -> plain data; ``None`` when the attribute is plain data.
    encode: Optional[Callable[[Any], Any]] = None
    #: The attribute holds wire objects, which ``canonical_encode`` splices as
    #: they are: ``encode`` would only flatten them to be walked again.
    spliced: bool = False
    #: ``read(data, offset)``: the attribute encoded at ``offset`` and the
    #: offset after it, without building plain data.  ``None``: the kind is
    #: read by the generic walk followed by ``decode`` (:func:`_reader`).
    read: Optional[Callable[[bytes, int], tuple]] = None
    #: ``write(value)``: the attribute's bytes, the mirror of ``read``, without
    #: building plain data.  ``None``: ``canonical_encode`` of ``encode(value)``
    #: (or of the value, for plain data and spliced wire objects).
    write: Optional[Callable[[Any], bytes]] = None


#: What reading hostile bytes raises from inside, besides a reader's own
#: refusal: a short buffer (``struct.error``, ``IndexError``), bytes that are
#: not UTF-8 or not a number, the generic walk's and a constructor's
#: ``ValueError``.  Whoever holds the offset of the value being read -- a
#: class's reader, a container's loop -- turns them into :func:`_stopped`.
_FOREIGN = (ValueError, IndexError, struct.error)

_head = HEAD.unpack_from
_pack = HEAD.pack
_NONE = bytes((TAG_NONE,))


def _stopped(reason, offset: int) -> ValidationError:
    """The refusal that says where in the bytes reading stopped."""
    return ValidationError(f"{reason} (at byte {offset})")


def _expected(what: str, data: bytes, offset: int) -> ValidationError:
    return _stopped(f"expected {what}, found {data[offset : offset + 5]!r}", offset)


def _reader(kind: Kind) -> Callable[[bytes, int], tuple]:
    """``kind``'s byte reader: its own, or the generic walk and then its ``decode``.

    The second is what makes every kind readable while only the frequent
    ones have a direct reader, and no kind has two definitions of *valid*.
    """
    if kind.read is not None:
        return kind.read
    decode = kind.decode

    def read(data, offset):
        try:
            value, end = decode_at(data, offset)
            return decode(value, "the value"), end
        except (ValidationError, *_FOREIGN) as exc:
            raise _stopped(exc, offset) from None

    return read


def _exactly(label: str, *types, read=None) -> Kind:
    """Plain data of exactly these types (so a ``bool`` is not an ``int``)."""

    def decode(value, what):
        if type(value) in types:
            return value
        raise ValidationError(f"{what} must be {label}, not {type(value).__name__}")

    return Kind(decode, read=read)


def _read_str(data, offset):
    # Interned where that is safe (``intern_id``): every decode of an id shares one str.
    tag, length = _head(data, offset)
    end = offset + 5 + length
    if tag != TAG_STR or end > len(data):
        raise _expected("a str", data, offset)
    return intern_id(data[offset + 5 : end].decode()), end


def _read_bytes(data, offset):
    tag, length = _head(data, offset)
    end = offset + 5 + length
    if tag != TAG_BYTES or end > len(data):
        raise _expected("bytes", data, offset)
    return data[offset + 5 : end], end


def _read_int(data, offset):
    tag, length = _head(data, offset)
    end = offset + 5 + length
    if tag != TAG_INT or end > len(data):
        raise _expected("an int", data, offset)
    text = data[offset + 5 : end]
    number = int(text)
    if b"%d" % number != text:  # one spelling per number: not "007", "+7", "1_0"
        raise _stopped(f"non-canonical number {text!r}", offset)
    return number, end


def _read_bool(data, offset):
    tag = data[offset]
    if tag == TAG_TRUE:
        return True, offset + 1
    if tag == TAG_FALSE:
        return False, offset + 1
    raise _expected("a bool", data, offset)


STR = _exactly("a str", str, read=_read_str)
INT = _exactly("an int", int, read=_read_int)
BOOL = _exactly("a bool", bool, read=_read_bool)
BYTES = _exactly("bytes", bytes, read=_read_bytes)
#: Durations and virtual times: either number type, kept as it arrived.
NUMBER = _exactly("a number", int, float)
#: Opaque to the protocol: stored values, message payloads.  Nothing is
#: declared about them, so theirs is the generic walk.
ANY = Kind(lambda value, what: value, read=decode_at)


def _scalar(value, what):
    if 0 <= INT.decode(value, what) < 1 << 256:
        return value
    raise ValidationError(f"{what} must fit 32 bytes")


#: A Schnorr scalar: an integer that fits the 32 bytes it is hashed as.
SCALAR = Kind(_scalar)


def _mapping(value, what):
    if type(value) is dict:
        return value
    raise ValidationError(f"{what} must be a dict, not {type(value).__name__}")


#: A dict kept in wire form (trace attributes, a certificate's head block).
MAPPING = Kind(lambda value, what: dict(_mapping(value, what)))


def optional(kind: Kind) -> Kind:
    """``None``, or a ``kind``."""
    decode, encode, spliced, _, write = kind
    read_value = _reader(kind)

    def read(data, offset):
        if data[offset] == TAG_NONE:
            return None, offset + 1
        return read_value(data, offset)

    return Kind(
        lambda value, what: None if value is None else decode(value, what),
        encode and (lambda value: None if value is None else encode(value)),
        spliced,
        read,
        write and (lambda value: _NONE if value is None else write(value)),
    )


def list_of(kind: Kind) -> Kind:
    """A list of ``kind``; a tuple on the object."""
    decode_item, encode_item, spliced = kind[:3]
    read_item = _reader(kind)

    def decode(values, what):
        if isinstance(values, (list, tuple)):
            return tuple([decode_item(value, what) for value in values])
        raise ValidationError(f"{what} must be a list, not {type(values).__name__}")

    def read(data, offset):
        try:
            tag, count = _head(data, offset)
            if tag != TAG_LIST:
                raise _expected("a list", data, offset)
            offset += 5
            items = []
            for _ in range(count):  # a lying count runs out of bytes, not of memory
                item, offset = read_item(data, offset)
                items.append(item)
        except _FOREIGN as exc:
            raise _stopped(exc, offset) from None
        return tuple(items), offset

    if encode_item is None:
        return Kind(decode, list, read=read)
    return Kind(decode, lambda values: [encode_item(value) for value in values], spliced, read)


def map_of(kind: Kind) -> Kind:
    """A dict from ``str`` keys to ``kind``.

    Its reader holds the entries to the one order the format allows
    (strictly increasing encoded keys), as the generic walk does.  Where
    ``kind`` has a writer, so does the map, and it writes the entries in that
    order: by encoded key, which is by UTF-8 length and then bytes, as
    :func:`dict_layout` orders a form's keys (by ``str``, ``"b"`` would
    precede ``"aa"``).
    """
    decode_item, encode_item, spliced, _, write_item = kind
    read_item = _reader(kind)

    def decode(value, what):
        return {
            STR.decode(key, what): decode_item(item, what)
            for key, item in _mapping(value, what).items()
        }

    def read(data, offset):
        try:
            tag, count = _head(data, offset)
            if tag != TAG_DICT:
                raise _expected("a dict", data, offset)
            offset += 5
            entries = {}
            previous = b""
            for _ in range(count):
                key, end = _read_str(data, offset)
                encoded_key = data[offset:end]
                if encoded_key <= previous:
                    raise _stopped("dict entries out of order or repeated", offset)
                previous = encoded_key
                entries[key], offset = read_item(data, end)
        except _FOREIGN as exc:
            raise _stopped(exc, offset) from None
        return entries, offset

    def write_map(value):
        entries = {canonical_encode(key): item for key, item in value.items()}
        parts = [_pack(TAG_DICT, len(entries))]
        for key in sorted(entries):
            parts.append(key)
            parts.append(write_item(entries[key]))
        return b"".join(parts)

    write = write_item and write_map
    if encode_item is None:
        return Kind(decode, lambda value: dict(sorted(value.items())), read=read, write=write)
    return Kind(
        decode,
        lambda value: {key: encode_item(item) for key, item in sorted(value.items())},
        spliced,
        read,
        write,
    )


def pair_of(first: Kind, second: Kind) -> Kind:
    """A two-element list of plain kinds; a tuple on the object."""

    def decode(value, what):
        if isinstance(value, (list, tuple)) and len(value) == 2:
            return first.decode(value[0], what), second.decode(value[1], what)
        raise ValidationError(f"{what} must be a pair")

    return Kind(decode, list)


#: The genesis stamp every item starts at, and its bytes.  Both readers hand
#: back ``Timestamp.zero()`` for it, so a restored datastore shares one stamp
#: as a live one does.
_GENESIS = Timestamp.zero()
_PAIR = _pack(TAG_LIST, 2)  # a list of two
_GENESIS_BYTES = canonical_encode(list(_GENESIS.as_tuple()))


def _timestamp(value, what):
    if isinstance(value, (list, tuple)) and len(value) == 2:
        counter, client_id = value
        if type(counter) is int and counter >= 0 and type(client_id) is str:
            return Timestamp(counter, client_id) if counter or client_id else Timestamp.zero()
    raise ValidationError(f"{what} must be a [counter >= 0, client id] pair, not {value!r}")


def _read_timestamp(data, offset):
    """A stamp in one step: the genesis constant, or the pair, int and str inline.

    Inline, it is :func:`_read_int` then :func:`_read_str` -- the same checks
    in the same order, so every refusal is theirs, at the same byte.
    """
    if data.startswith(_GENESIS_BYTES, offset):
        return Timestamp.zero(), offset + len(_GENESIS_BYTES)
    if not data.startswith(_PAIR, offset):
        raise _expected("a [counter, client id] pair", data, offset)
    start = offset + 5
    tag, length = _head(data, start)
    end = start + 5 + length
    if tag != TAG_INT or end > len(data):
        raise _expected("an int", data, start)
    text = data[start + 5 : end]
    counter = int(text)
    if b"%d" % counter != text:
        raise _stopped(f"non-canonical number {text!r}", start)
    start = end
    tag, length = _head(data, start)
    end = start + 5 + length
    if tag != TAG_STR or end > len(data):
        raise _expected("a str", data, start)
    client_id = intern_id(data[start + 5 : end].decode())
    if counter < 0:
        raise _stopped("a timestamp counter must be >= 0", offset)
    return Timestamp(counter, client_id), end


def _write_timestamp(stamp) -> bytes:
    """``canonical_encode(list(stamp.as_tuple()))``, its heads packed directly."""
    if stamp is _GENESIS:
        return _GENESIS_BYTES
    counter = b"%d" % stamp.counter
    client_id = stamp.client_id.encode()
    return b"".join(
        (_PAIR, _pack(TAG_INT, len(counter)), counter, _pack(TAG_STR, len(client_id)), client_id)
    )


TIMESTAMP = Kind(_timestamp, Timestamp.as_tuple, read=_read_timestamp, write=_write_timestamp)

_IDS = list_of(STR)


def _id_set(values, what):
    members = _IDS.decode(values, what)
    if list(members) != sorted(set(members)):
        raise ValidationError(f"{what} must be sorted and free of repeats")
    return members


#: A set of identifiers in its one wire form: sorted, without repeats (any
#: other order would decode to the same set but not re-encode to the bytes
#: it came from).
ID_SET = Kind(_id_set, sorted)

#: A ``server id -> Merkle root`` mapping.
ROOTS = map_of(BYTES)


def enum_of(enum) -> Kind:
    """A member of ``enum``, on the wire as its value."""

    def decode(value, what):
        try:
            return enum(value)
        except ValueError:
            raise ValidationError(f"{what}: {value!r} is not a {enum.__name__}") from None

    return Kind(decode, attrgetter("value"))


def nested(cls) -> Kind:
    """Another wire class, through its own derived codec."""
    return Kind(
        lambda value, what: cls.from_wire(value),
        methodcaller("to_wire"),
        spliced=True,
        read=cls.read_bytes,
    )


class _Entry(NamedTuple):
    """An entry that is not a field."""

    key: str
    role: str
    detail: Any = None


def sub(key: str, *entries) -> _Entry:
    """Fields grouped under one key: a block's ``body``, an envelope's ``content``."""
    return _Entry(key, "sub", entries)


def tag(key: str, constant) -> _Entry:
    """A constant that tells sibling forms apart (``ReadOp`` / ``WriteOp``)."""
    return _Entry(key, "tag", constant)


def extra(key: str) -> _Entry:
    """A key that is not state, which the decoder ignores.

    It carries the same-named attribute where the class has one and ``None``
    otherwise; its one use is a histogram's derived ``mean``
    (:class:`~repro.obs.metrics.Histogram`).
    """
    return _Entry(key, "extra")


def _expect(value, what, constant):
    if value != constant:
        raise ValidationError(f"{what} must be {constant!r}, not {value!r}")


def kept(method):
    """A value derived from a frozen object's fields, computed once per instance.

    It sits in the instance ``__dict__`` beside the fields it was derived from
    (under a name no field can have) and so lives exactly as long as they do:
    a field of a frozen instance only changes through ``dataclasses.replace``,
    which builds a new instance without it.  This is the one memo on wire
    objects -- ``wire_form``, asked for ``owns_bytes``, applies it to the derived
    encoder, a class to the digests it is asked for again and again -- and on
    a public key, for the MAC key derived from it.
    """
    slot = f"{method.__name__}()"

    @wraps(method)
    def kept_method(self):
        try:
            return self.__dict__[slot]
        except KeyError:
            value = self.__dict__[slot] = method(self)
            return value

    return kept_method


def _merged(pieces) -> list:
    """``pieces`` with constant neighbours joined into one constant."""
    merged = []
    for piece in pieces:
        if isinstance(piece, bytes) and merged and isinstance(merged[-1], bytes):
            merged[-1] += piece
        else:
            merged.append(piece)
    return merged


def _only(data, declared) -> None:
    """Refuse a mapping that carries a key its declaration does not name.

    Two byte strings must not decode to equal objects, or "whatever decodes
    re-encodes to itself" would hold for plain data only.
    """
    undeclared = [key for key in data if key not in declared]
    if undeclared:
        raise ValidationError(f"undeclared key(s) {undeclared!r}")


def _follows(data: bytes, offset: int, constant: bytes) -> int:
    """How many bytes of ``constant`` stand in ``data`` at ``offset``."""
    if data.startswith(constant, offset):
        return len(constant)
    found = data[offset : offset + len(constant)]
    return next((i for i, (a, b) in enumerate(zip(found, constant)) if a != b), len(found))


def _departs(data: bytes, offset: int, constant: bytes) -> ValidationError:
    """The refusal of bytes that leave the declared layout, at the first byte that differs."""
    same = _follows(data, offset, constant)
    at = offset + same
    return _stopped(f"expected {constant[same : same + 16]!r}, found {data[at : at + 16]!r}", at)


def sibling_reader(*forms) -> Callable[[bytes], Any]:
    """``from_bytes`` of sibling forms, the ones a :func:`tag` tells apart.

    The bytes are read as the form whose opening constant they follow
    furthest, so a refusal names the first byte that departs from the
    *closest* form.  The forms must open differently (their tag key sorts
    before their first field), or there would be nothing to choose by.
    """
    if any(a.WIRE_PREFIX.startswith(b.WIRE_PREFIX) for a in forms for b in forms if a is not b):
        raise TypeError("sibling forms must open with different constants")

    def from_bytes(data):
        return max(forms, key=lambda form: _follows(data, 0, form.WIRE_PREFIX)).from_bytes(data)

    return from_bytes


#: The methods of a wire class.  The declaration is static, so they are
#: generated once per class, as ``dataclasses`` generates ``__init__``: a
#: field costs one attribute load on the way out and one kind check on the
#: way in, which is what a hand-written pair would cost.
_METHODS = """
def to_wire(self):
    return {display}

def from_wire(data):
    try:
        _mapping(data, "the wire form")
        {checks}
        return cls({arguments})
    except KeyError as exc:
        raise ValidationError(f"malformed wire encoding of {name}: {{exc}} is missing") from None
    except (ValidationError, ValueError) as exc:  # ValueError: a constructor's own check
        raise ValidationError(f"malformed wire encoding of {name}: {{exc}}") from None

def from_bytes(data):
    data = bytes(data)
    try:
        value, end = read_bytes(data, 0)
    except ValidationError as exc:
        raise ValidationError(f"malformed encoding of {name}: {{exc}}") from None
    except RecursionError:  # caught here, at the boundary: the readers pay nothing
        raise ValidationError(f"malformed encoding of {name}: nested too deeply") from None
    if end != len(data):
        raise ValidationError(
            f"malformed encoding of {name}: {{len(data) - end}} trailing byte(s) (at byte {{end}})"
        )
    return value
"""

#: The bytes of the whole form (``wire_bytes``) or of one :func:`sub` group.
_BYTES_METHOD = """
def {key}_bytes(self):
    return b"".join(({spliced},))
"""

#: ``(object, next offset)`` from the bytes at ``offset``: what ``from_bytes``
#: and the reader of a container holding this class call.  Every step is a
#: constant of the declaration to find, or a field's reader to run.
_READ_METHOD = """
def read_bytes(data, offset):
    try:
        {steps}
        return cls({arguments}), offset
    except _FOREIGN as exc:
        raise _stopped(exc, offset) from None
"""


def wire_form(*entries, owns_bytes: bool = False):
    """Class decorator: derive the codec -- ``to_wire()``, ``wire_bytes()``,
    ``from_wire()``, ``from_bytes()``.

    The declaration is total: it must account for every dataclass field (or
    slot) of the class, so a field added without a kind fails here, at class
    creation, rather than silently staying off the wire.  ``WIRE_EXTRAS``
    names the class's :func:`extra` keys, the ones a faithful re-encoding
    need not reproduce.

    ``wire_bytes()`` equals ``canonical_encode(self.to_wire())`` and is what
    ``canonical_encode(self)`` returns; each :func:`sub` group also gets
    ``<key>_bytes()``, the bytes of that key alone.  They are put together
    anew on every call and nothing is stored -- except by a class declared
    with ``owns_bytes``, whose instances keep their encoding (:func:`kept`).
    That is for a frozen object that many holders splice or store -- a
    transaction, which every envelope, block and journal record carrying it
    splices, and a block, which every delivery and every server's journal
    does -- so they all share one bytes object.  A memory journal holds such
    bytes as a record's pieces (bytes, never the object), joined only when
    the record is read; request forms, envelopes and journal records keep
    nothing.

    ``from_bytes(data)`` equals ``from_wire(canonical_decode(data))`` on every
    input, refusals included, and builds no plain data on the way:
    ``read_bytes(data, offset)`` walks the same layout ``wire_bytes()`` writes.
    A class that declares an :func:`extra` has no such layout (the key may be
    absent), so its ``read_bytes`` is the generic walk followed by
    ``from_wire``, like a kind without a reader of its own.  ``WIRE_PREFIX``
    is the constant a class's encoding opens with, which tells sibling forms
    apart before anything is read.
    """

    def derive(cls):
        scope = dict(
            cls=cls,
            ValidationError=ValidationError,
            _mapping=_mapping,
            _expect=_expect,
            _only=_only,
            _bytes=canonical_encode,
            _departs=_departs,
            _stopped=_stopped,
            _FOREIGN=_FOREIGN,
        )
        checks, arguments, attrs, extras, groups = [], [], [], [], {}

        def forms(group, source: str) -> tuple:
            """``group`` emitted both ways, noting how to read it back from ``source``.

            Returns the dict display of ``to_wire()`` and the pieces of the same
            dict's encoding: ``bytes`` where the declaration fixes them, and where
            the instance does, the source text that ``(writes, reads)`` them.
            """
            items, layout = [], []
            for entry in group:
                key = entry[0]
                found = f"{source}[{key!r}], {key!r}"
                role = entry.role if isinstance(entry, _Entry) else "field"
                if role == "sub":
                    checks.append(f"{source}_{key} = _mapping({found})")
                    item, pieces = forms(entry.detail, f"{source}_{key}")
                    groups[key] = pieces
                elif role == "tag":
                    checks.append(f"_expect({found}, {entry.detail!r})")
                    item, pieces = repr(entry.detail), [canonical_encode(entry.detail)]
                elif role == "extra":
                    extras.append(key)
                    item = f"getattr(self, {key!r}, None)"
                    pieces = [(f"_bytes({item})", None)]
                else:
                    attr = entry[2] if len(entry) == 3 else key
                    kind = entry[1]
                    scope[f"_decode_{attr}"], scope[f"_encode_{attr}"] = kind.decode, kind.encode
                    scope[f"_read_{attr}"], scope[f"_write_{attr}"] = _reader(kind), kind.write
                    item = f"_encode_{attr}(self.{attr})" if kind.encode else f"self.{attr}"
                    if kind.write:
                        written = f"_write_{attr}(self.{attr})"
                    else:
                        written = f"_bytes(self.{attr})" if kind.spliced else f"_bytes({item})"
                    pieces = [(written, f"{attr}, offset = _read_{attr}(data, offset)")]
                    arguments.append(f"{attr}=_decode_{attr}({found})")
                    attrs.append(attr)
                items.append(f"{key!r}: {item}")
                layout.append((key, pieces))
            declared = tuple(entry[0] for entry in group)
            # An absent extra could make room for an undeclared key: then every key is looked at.
            unless = "" if set(declared) & set(extras) else f"if len({source}) != {len(declared)}: "
            checks.append(f"{unless}_only({source}, {declared!r})")
            return "{" + ", ".join(items) + "}", _merged(dict_layout(layout))

        display, groups["wire"] = forms(entries, "data")
        source = _METHODS.format(
            display=display,
            checks="\n        ".join(checks),
            arguments=", ".join(arguments),
            name=cls.__name__,
        ) + "".join(
            _BYTES_METHOD.format(
                key=key,
                spliced=", ".join(
                    repr(piece) if isinstance(piece, bytes) else piece[0] for piece in group
                ),
            )
            for key, group in groups.items()
        )
        state = [field.name for field in fields(cls)] if is_dataclass(cls) else cls.__slots__
        # read_bytes passes a dataclass its fields positionally, in field order,
        # which makes a frozen dataclass's __init__ about a quarter cheaper than
        # keywords (a slots class's __init__ need not take its slots in order).
        # from_wire keeps keywords: it is the cold audit's path, and the
        # benchmark's traced self-test allows 2 % of the wall unattributed.
        # Its remainder there is a fixed teardown, 1.27-1.45 % of the traced
        # audit_cold op (five smoke passes); an op about 1.5x faster reaches
        # the gate (ROADMAP item 1(a)).
        in_order = state if is_dataclass(cls) else [f"{attr}={attr}" for attr in attrs]
        if not extras:
            steps = []
            for piece in groups["wire"]:
                if isinstance(piece, bytes):
                    steps.append(
                        f"if not data.startswith({piece!r}, offset): "
                        f"raise _departs(data, offset, {piece!r})"
                    )
                    steps.append(f"offset += {len(piece)}")
                else:
                    steps.append(piece[1])
            source += _READ_METHOD.format(
                steps="\n        ".join(steps), arguments=", ".join(in_order)
            )
        if sorted(attrs) != sorted(state):
            raise TypeError(
                f"{cls.__name__}: the wire form covers {sorted(attrs)}, "
                f"the class holds {sorted(state)}"
            )
        # One file name per class, so a profile keeps each class's methods apart.
        exec(compile(source, f"<wire_form {cls.__name__}>", "exec"), scope)
        if extras:
            scope["read_bytes"] = _reader(Kind(lambda value, what: scope["from_wire"](value)))
        for name in ("to_wire", *(f"{key}_bytes" for key in groups)):
            setattr(cls, name, scope[name])
        if owns_bytes:
            cls.wire_bytes = kept(cls.wire_bytes)
        for name in ("from_wire", "from_bytes", "read_bytes"):
            setattr(cls, name, staticmethod(scope[name]))
        cls.WIRE_EXTRAS = tuple(extras)
        cls.WIRE_PREFIX = groups["wire"][0]
        ENCODERS[cls] = cls.wire_bytes
        WIRE_CLASSES[cls.__name__] = cls
        return cls

    return derive
