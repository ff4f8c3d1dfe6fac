"""The wire form of a class, declared once.

Every block, envelope and vote needs exactly one byte form that untrusted
peers sign, hash and read back.  A wire class states that form next to its
fields::

    @wire_form(("item_id", STR), ("value", ANY), ("rts", TIMESTAMP), ("wts", TIMESTAMP))
    @dataclass(frozen=True)
    class ReadResult: ...

and :func:`wire_form` derives the rest from the declaration: ``to_wire()``
(the plain data whose :func:`~repro.common.encoding.canonical_encode` is the
byte form), ``wire_bytes()`` (those bytes, made without building the plain
data: the declared keys are encoded and ordered once, here, and a field that
holds wire objects is spliced from their own bytes), the strict
``from_wire()`` that reads the plain data back, and the entry in
:data:`WIRE_CLASSES`, the only classes ``canonical_encode`` accepts -- so an
encoder without an inverse cannot exist.

An entry is ``(wire key, kind)`` -- or ``(wire key, kind, attribute)`` where
the two names differ -- and a :class:`Kind` says how that field crosses the
wire.  Strict means a kind *checks and never coerces* (``str(b"s0")`` and
``int(True)`` would both "decode"), and whatever is wrong with the input, the
decoder raises :class:`~repro.common.errors.ValidationError`: its input is
bytes an attacker may have chosen, and a garbled record must never
half-materialise into a plausible-looking object.  Three entries are not
fields: :func:`sub` groups fields under one key, :func:`tag` is a constant
that tells sibling forms apart, :func:`extra` is a key that is not state.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from functools import wraps
from operator import attrgetter, methodcaller
from typing import Any, Callable, Dict, NamedTuple, Optional

from repro.common.encoding import ENCODERS, canonical_encode, dict_layout
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


def _exactly(label: str, *types) -> Kind:
    """Plain data of exactly these types (so a ``bool`` is not an ``int``)."""

    def decode(value, what):
        if type(value) in types:
            return value
        raise ValidationError(f"{what} must be {label}, not {type(value).__name__}")

    return Kind(decode)


STR = _exactly("a str", str)
INT = _exactly("an int", int)
BOOL = _exactly("a bool", bool)
BYTES = _exactly("bytes", bytes)
#: Durations and virtual times: either number type, kept as it arrived.
NUMBER = _exactly("a number", int, float)
#: Opaque to the protocol: stored values, message payloads.
ANY = Kind(lambda value, what: value)


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
    decode, encode, spliced = kind
    return Kind(
        lambda value, what: None if value is None else decode(value, what),
        encode and (lambda value: None if value is None else encode(value)),
        spliced,
    )


def list_of(kind: Kind) -> Kind:
    """A list of ``kind``; a tuple on the object."""
    decode_item, encode_item, spliced = kind

    def decode(values, what):
        if isinstance(values, (list, tuple)):
            return tuple([decode_item(value, what) for value in values])
        raise ValidationError(f"{what} must be a list, not {type(values).__name__}")

    if encode_item is None:
        return Kind(decode, list)
    return Kind(decode, lambda values: [encode_item(value) for value in values], spliced)


def pair_of(first: Kind, second: Kind) -> Kind:
    """A two-element list of plain kinds; a tuple on the object."""

    def decode(value, what):
        if isinstance(value, (list, tuple)) and len(value) == 2:
            return first.decode(value[0], what), second.decode(value[1], what)
        raise ValidationError(f"{what} must be a pair")

    return Kind(decode, list)


def _timestamp(value, what):
    if isinstance(value, (list, tuple)) and len(value) == 2:
        counter, client_id = value
        if type(counter) is int and counter >= 0 and type(client_id) is str:
            return Timestamp(counter, client_id)
    raise ValidationError(f"{what} must be a [counter >= 0, client id] pair, not {value!r}")


TIMESTAMP = Kind(_timestamp, Timestamp.as_tuple)

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


def _roots(value, what):
    for server_id, root in _mapping(value, what).items():
        STR.decode(server_id, what)
        BYTES.decode(root, what)
    return dict(value)


#: A ``server id -> Merkle root`` mapping.
ROOTS = Kind(_roots, lambda roots: dict(sorted(roots.items())))


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
    return Kind(lambda value, what: cls.from_wire(value), methodcaller("to_wire"), spliced=True)


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

    It carries the same-named attribute where the class has one (a
    histogram's derived ``mean``) and ``None`` otherwise, for the sender to
    fill in (the proof a ``TxnOutcome`` travels with, which the client
    verifies itself).
    """
    return _Entry(key, "extra")


def _expect(value, what, constant):
    if value != constant:
        raise ValidationError(f"{what} must be {constant!r}, not {value!r}")


def kept(method):
    """A value derived from a frozen wire object's fields, computed once per instance.

    It sits in the instance ``__dict__`` beside the fields it was derived from
    (under a name no field can have) and so lives exactly as long as they do:
    a field of a frozen instance only changes through ``dataclasses.replace``,
    which builds a new instance without it.  This is the one memo on wire
    objects -- ``wire_form(..., owns_bytes=True)`` applies it to the derived
    encoder, a class to the digests it is asked for again and again.
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


def _joined(pieces) -> str:
    """Source text of the bytes ``pieces`` add up to, constant neighbours merged."""
    merged = []
    for piece in pieces:
        if isinstance(piece, bytes) and merged and isinstance(merged[-1], bytes):
            merged[-1] += piece
        else:
            merged.append(piece)
    return 'b"".join((%s,))' % ", ".join(
        piece if isinstance(piece, str) else repr(piece) for piece in merged
    )


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
"""

#: The bytes of the whole form (``wire_bytes``) or of one :func:`sub` group.
_BYTES_METHOD = """
def {key}_bytes(self):
    return {spliced}
"""


def wire_form(*entries, owns_bytes: bool = False):
    """Class decorator: derive the codec -- ``to_wire()``, ``wire_bytes()``, ``from_wire()``.

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
    That is for a frozen leaf that many containers carry: every block,
    envelope and WAL record holding it then splices the same bytes.
    """

    def derive(cls):
        scope = dict(
            cls=cls,
            ValidationError=ValidationError,
            _mapping=_mapping,
            _expect=_expect,
            _bytes=canonical_encode,
        )
        checks, arguments, attrs, extras, groups = [], [], [], [], {}

        def forms(group, source: str) -> tuple:
            """``group`` emitted both ways, noting how to read it back from ``source``.

            Returns the dict display of ``to_wire()`` and the pieces of the same
            dict's encoding: ``bytes`` where the declaration fixes them, source
            text where the instance does.
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
                    pieces = [f"_bytes({item})"]
                else:
                    attr = entry[2] if len(entry) == 3 else key
                    scope[f"_decode_{attr}"], scope[f"_encode_{attr}"], spliced = entry[1]
                    item = f"_encode_{attr}(self.{attr})" if entry[1].encode else f"self.{attr}"
                    pieces = [f"_bytes(self.{attr})" if spliced else f"_bytes({item})"]
                    arguments.append(f"{attr}=_decode_{attr}({found})")
                    attrs.append(attr)
                items.append(f"{key!r}: {item}")
                layout.append((key, pieces))
            return "{" + ", ".join(items) + "}", dict_layout(layout)

        display, groups["wire"] = forms(entries, "data")
        source = _METHODS.format(
            display=display,
            checks="\n        ".join(checks),
            arguments=", ".join(arguments),
            name=cls.__name__,
        ) + "".join(
            _BYTES_METHOD.format(key=key, spliced=_joined(group)) for key, group in groups.items()
        )
        state = [field.name for field in fields(cls)] if is_dataclass(cls) else cls.__slots__
        if sorted(attrs) != sorted(state):
            raise TypeError(
                f"{cls.__name__}: the wire form covers {sorted(attrs)}, "
                f"the class holds {sorted(state)}"
            )
        exec(source, scope)
        for name in ("to_wire", *(f"{key}_bytes" for key in groups)):
            setattr(cls, name, scope[name])
        if owns_bytes:
            cls.wire_bytes = kept(cls.wire_bytes)
        cls.from_wire = staticmethod(scope["from_wire"])
        cls.WIRE_EXTRAS = tuple(extras)
        ENCODERS[cls] = cls.wire_bytes
        WIRE_CLASSES[cls.__name__] = cls
        return cls

    return derive
