"""Decoder fuzzing: every wire class's ``from_wire`` against hostile input.

The round-trip suite (``test_wire_roundtrip.py``) checks decoders against
the encoders' own output, so it cannot see what a decoder does with input no
encoder would produce.  Here each decoder is fed (a) the valid wire form of
its builder with one random sub-node replaced by arbitrary plain data or
dropped, and (b) whatever random bytes ``canonical_decode`` accepts.  The
oracle is the trust boundary's contract: a decoder either raises
``ValidationError`` (``canonical_decode``: ``ValueError``) or returns an
object that is *sound* -- its wire form re-encodes and every digest / key /
footprint it can be asked for computes.  Any other exception means hostile
bytes half-materialised into an object that blows up later, far from the
boundary and with the wrong exception type.  A damaged valid form that is
accepted must moreover be *faithful*: the object re-encodes to the bytes it
was decoded from, which a decoder that coerces (``str(b"s0")``, ``int("2")``,
``int(True)``) instead of checking violates.

The runs are derandomized: tier-1 must not flake on a rare draw.  To hunt,
raise ``max_examples`` and drop ``derandomize`` locally.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.encoding import canonical_decode, canonical_encode
from repro.common.errors import ValidationError
from repro.common.wire import WIRE_CLASSES
import repro.recovery.wire  # noqa: F401  (imports every module that fills WIRE_CLASSES)

from test_wire_roundtrip import BUILDERS

#: What the rest of the system asks a decoded object for.
DERIVED = (
    "body_digest",
    "group_body_digest",
    "signing_digest",
    "block_hash",
    "round_key",
    "items_accessed",
    "encoded",
    "anchor_hash",
    "digest",
)

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.binary(max_size=6),
)
#: Anything ``canonical_decode`` can produce.
plain_data = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.one_of(st.text(max_size=4), st.integers(0, 3)), children, max_size=3),
    ),
    max_leaves=6,
)


#: Wire keys that are not object state: advisory extras the client layer
#: verifies itself, and derived values the decoder recomputes -- as each
#: class's declaration lists them.
NOT_STATE = {name: cls.WIRE_EXTRAS for name, cls in WIRE_CLASSES.items()}

_DROP = object()


def _paths(node, prefix=()):
    """Every path to a sub-node of a wire structure (the root excluded)."""
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def _valid_wire(class_name):
    """The builder's wire form as it arrives: through bytes (tuples -> lists)."""
    return canonical_decode(canonical_encode(BUILDERS[class_name]().to_wire()))


def assert_rejected_or_sound(class_name, wire, faithful=False):
    try:
        decoded = WIRE_CLASSES[class_name].from_wire(wire)
    except ValidationError:
        return
    if decoded is None:  # the optional-cosign decoder maps None -> None
        return
    again = decoded.to_wire()
    canonical_encode(again)
    for name in DERIVED:
        if callable(getattr(decoded, name, None)):
            getattr(decoded, name)()
    if faithful:
        state = {k: v for k, v in wire.items() if k not in NOT_STATE.get(class_name, ())}
        for key in NOT_STATE.get(class_name, ()):
            again.pop(key, None)
        assert canonical_encode(again) == canonical_encode(state), (class_name, wire, again)


@pytest.mark.parametrize("class_name", sorted(WIRE_CLASSES))
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_mutated_valid_form_is_rejected_or_decodes_soundly(class_name, data):
    """Each example damages *every* sub-node once (one at a time), so deep
    structures (a block's transactions' entries) get as much attention per
    field as flat ones."""
    valid = _valid_wire(class_name)
    for path in sorted(_paths(valid), key=repr):
        wire = copy.deepcopy(valid)
        parent = wire
        for key in path[:-1]:
            parent = parent[key]
        replacement = data.draw(st.one_of(st.just(_DROP), plain_data), label=repr(path))
        if replacement is _DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = replacement
        assert_rejected_or_sound(class_name, wire, faithful=True)


@pytest.mark.parametrize("class_name", sorted(WIRE_CLASSES))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(wire=plain_data)
def test_arbitrary_plain_data_is_rejected_or_decodes_soundly(class_name, wire):
    assert_rejected_or_sound(class_name, wire)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(blob=st.binary(max_size=64))
def test_random_bytes_never_escape_canonical_decode_with_another_exception(blob):
    try:
        wire = canonical_decode(blob)
    except ValueError:
        return
    for class_name in sorted(WIRE_CLASSES):
        assert_rejected_or_sound(class_name, wire)


def test_a_valid_prefix_with_a_flipped_tag_still_only_raises_value_error():
    """Seeded corpus for the bytes path: real encodings, one byte damaged."""
    for class_name in sorted(WIRE_CLASSES):
        encoded = canonical_encode(BUILDERS[class_name]().to_wire())
        for offset in range(0, len(encoded), 7):
            damaged = encoded[:offset] + bytes([encoded[offset] ^ 0x5A]) + encoded[offset + 1 :]
            try:
                wire = canonical_decode(damaged)
            except ValueError:
                continue
            assert_rejected_or_sound(class_name, wire)


@pytest.mark.parametrize(
    "class_name, damage",
    [
        ("ServerGroup", {"members": [b"s0", 7], "coordinator": 7}),
        ("ServerGroup", {"members": ["s1", "s0"]}),  # one set, a second spelling
        ("FrontierCertificate", {"server_id": b"s1"}),
        ("FrontierCertificate", {"view": "2"}),
        ("FrontierCertificate", {"height": True}),
        ("VoteResult", {"involved": 1}),
        ("TxnOutcome", {"block_height": "4"}),
        ("Envelope", {"content": {"sender": 5}}),
    ],
)
def test_a_lying_peers_field_is_refused_not_coerced(class_name, damage):
    """What PR 15's strictness missed: these decoded (``str(b"s1")`` is the
    server id ``"b's1'"``, ``int(True)`` the height 1) instead of raising."""
    wire = _valid_wire(class_name)
    for key, value in damage.items():
        if isinstance(value, dict):
            wire[key].update(value)
        else:
            wire[key] = value
    with pytest.raises(ValidationError):
        WIRE_CLASSES[class_name].from_wire(wire)
