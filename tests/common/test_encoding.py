"""Tests for the canonical byte encoding."""

from __future__ import annotations

from enum import Enum, IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.encoding import canonical_decode, canonical_encode
from repro.txn.operations import ReadOp


class TestCanonicalEncodeBasics:
    def test_none_true_false_are_distinct(self):
        assert canonical_encode(None) != canonical_encode(False)
        assert canonical_encode(True) != canonical_encode(False)

    def test_int_and_str_with_same_repr_differ(self):
        assert canonical_encode(42) != canonical_encode("42")

    def test_bytes_and_str_differ(self):
        assert canonical_encode(b"abc") != canonical_encode("abc")

    def test_float_and_int_differ(self):
        assert canonical_encode(1.0) != canonical_encode(1)

    def test_dict_order_does_not_matter(self):
        first = canonical_encode({"a": 1, "b": 2, "c": [3, 4]})
        second = canonical_encode({"c": [3, 4], "b": 2, "a": 1})
        assert first == second

    def test_nested_structures(self):
        value = {"k": [1, "two", {"three": 3.0}], "empty": [], "n": None}
        assert canonical_encode(value) == canonical_encode(dict(value))

    def test_list_vs_tuple_equal(self):
        assert canonical_encode([1, 2, 3]) == canonical_encode((1, 2, 3))

    def test_length_prefix_prevents_concatenation_ambiguity(self):
        assert canonical_encode(["ab", "c"]) != canonical_encode(["a", "bc"])

    def test_unsupported_type_raises(self):
        class Opaque:
            pass

        with pytest.raises(TypeError):
            canonical_encode(Opaque())

    def test_a_wire_class_is_encoded_as_its_wire_form(self):
        op = ReadOp("x1")
        assert canonical_encode([op]) == canonical_encode([op.to_wire()])

    def test_a_hand_rolled_to_wire_is_not_a_wire_class(self):
        """Only declared classes encode: they are the ones with a decoder."""

        class Wired:
            def to_wire(self):
                return {"x": 1}

        class ReadOp:  # the name of a registered class is not enough
            def to_wire(self):
                return {"op": "read", "item_id": "x1"}

        for impostor in (Wired(), ReadOp()):
            with pytest.raises(TypeError):
                canonical_encode(impostor)
            with pytest.raises(TypeError):
                canonical_encode({"nested": [impostor]})


class _Level(IntEnum):
    HIGH = 3


class _Mode(int, Enum):
    BURST = 2


class _Named(int):
    def __str__(self):
        return "named"

    __repr__ = __str__


class _Rounded(float):
    def __repr__(self):
        return "about 1.5"


class TestSubclassesEncodeAsTheirValue:
    """An int or float subclass is spelled by its value, never by its own
    ``__str__``/``__repr__``: ``str()`` of an ``(int, Enum)`` member is
    ``"_Mode.BURST"`` (and of an ``IntEnum`` member on Python 3.10), bytes the
    decoder refuses and that would differ between interpreters."""

    @pytest.mark.parametrize("value", [_Level.HIGH, _Mode.BURST, _Named(-41)])
    def test_an_int_subclass_encodes_as_its_int(self, value):
        encoded = canonical_encode(value)
        assert encoded == canonical_encode(int(value))
        assert canonical_decode(encoded) == int(value)
        assert canonical_encode({"k": [value]}) == canonical_encode({"k": [int(value)]})

    def test_a_float_subclass_encodes_as_its_float(self):
        value = _Rounded(1.5)
        encoded = canonical_encode(value)
        assert encoded == canonical_encode(1.5)
        assert canonical_decode(encoded) == 1.5


class TestSeededRandomPayloads:
    """Seeded-random payloads (shared generator): deterministic for a seed."""

    @pytest.mark.parametrize("seed", [0, 1, 2020])
    def test_randomized_payloads_encode_deterministically(self, random_payload, seed):
        import random

        payloads = [random_payload(random.Random(seed + i)) for i in range(40)]
        first = [canonical_encode(p) for p in payloads]
        second = [canonical_encode(p) for p in payloads]
        assert first == second

    @pytest.mark.parametrize("seed", [7, 2020])
    def test_randomized_payloads_rarely_collide(self, random_payload, seed):
        import random

        payloads = [random_payload(random.Random(seed * 1000 + i)) for i in range(60)]
        by_encoding = {}
        for payload in payloads:
            by_encoding.setdefault(canonical_encode(payload), []).append(payload)
        for group in by_encoding.values():
            head = group[0]
            assert all(item == head for item in group)

    @pytest.mark.parametrize("seed", [5])
    def test_dict_shuffling_never_changes_encoding(self, random_payload, seed):
        import random

        rng = random.Random(seed)
        for _ in range(30):
            mapping = {
                f"key-{rng.randint(0, 100)}": random_payload(rng) for _ in range(6)
            }
            items = list(mapping.items())
            rng.shuffle(items)
            assert canonical_encode(mapping) == canonical_encode(dict(items))


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.text(max_size=30),
    st.binary(max_size=30),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
    ),
    max_leaves=20,
)


class TestCanonicalEncodeProperties:
    @settings(max_examples=60, deadline=None)
    @given(_values)
    def test_encoding_is_deterministic(self, value):
        assert canonical_encode(value) == canonical_encode(value)

    @settings(max_examples=60, deadline=None)
    @given(_values, _values)
    def test_distinct_scalars_lists_rarely_collide(self, left, right):
        # canonical_encode must be injective on the supported value domain
        # (ignoring list/tuple equivalence); a collision would let a malicious
        # server forge two different blocks with the same digest.
        if left != right:
            assert canonical_encode(left) != canonical_encode(right)

    @settings(max_examples=40, deadline=None)
    @given(st.dictionaries(st.text(max_size=6), st.integers(), max_size=6))
    def test_dict_insertion_order_irrelevant(self, mapping):
        reordered = dict(reversed(list(mapping.items())))
        assert canonical_encode(mapping) == canonical_encode(reordered)


def _normalise(value):
    """Tuples decode as lists; floats only survive if finite and exact."""
    if isinstance(value, tuple):
        return [_normalise(item) for item in value]
    if isinstance(value, list):
        return [_normalise(item) for item in value]
    if isinstance(value, dict):
        return {key: _normalise(item) for key, item in value.items()}
    return value


class TestCanonicalDecode:
    """The decoder is the exact inverse (WAL files depend on this)."""

    @settings(max_examples=80, deadline=None)
    @given(_values)
    def test_round_trip(self, value):
        assert canonical_decode(canonical_encode(value)) == _normalise(value)

    def test_round_trips_floats(self):
        for value in (0.0, -1.5, 3.141592653589793, 1e300):
            assert canonical_decode(canonical_encode(value)) == value

    def test_rejects_trailing_bytes(self):
        with pytest.raises(ValueError):
            canonical_decode(canonical_encode(1) + b"x")

    def test_rejects_truncation(self):
        encoded = canonical_encode({"key": [1, 2, 3]})
        for cut in range(1, len(encoded)):
            with pytest.raises(ValueError):
                canonical_decode(encoded[:cut])

    def test_rejects_unknown_tag(self):
        with pytest.raises(ValueError):
            canonical_decode(b"Z\x00\x00\x00\x00")

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            canonical_decode(b"")


def _framed(tag: bytes, payload: bytes) -> bytes:
    return tag + len(payload).to_bytes(4, "big") + payload


def _dict_of(*entries: bytes) -> bytes:
    return b"M" + (len(entries) // 2).to_bytes(4, "big") + b"".join(entries)


_numeric_values = st.recursive(
    st.one_of(_scalars, st.floats(allow_nan=False), st.integers(-1000, 1000)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=4) | st.integers(0, 20), children, max_size=4),
    ),
    max_leaves=10,
)


def _respell(value, choose) -> bytes:
    """An encoding of ``value`` that takes a liberty wherever ``choose`` picks one.

    ``choose(options)`` returns one of ``options``; always picking the first
    yields ``canonical_encode(value)``.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (str, bytes)):
        return canonical_encode(value)
    if isinstance(value, int):
        text = str(value)
        spellings = [text, "0" + text, " " + text, text + " "]
        if value >= 0:
            spellings.append("+" + text)
        if value == 0:
            spellings.append("-0")
        if len(text.lstrip("-")) > 1:
            spellings.append(text[:-1] + "_" + text[-1])
        return _framed(b"I", choose(spellings).encode("ascii"))
    if isinstance(value, float):
        text = repr(value)
        spellings = [text, text + "0", " " + text, "%e" % value, text.upper()]
        if value.is_integer() and abs(value) < 2**53:
            spellings.append(str(int(value)))
        return _framed(b"D", choose(spellings).encode("ascii"))
    if isinstance(value, list):
        items = [_respell(item, choose) for item in value]
        return b"L" + len(items).to_bytes(4, "big") + b"".join(items)
    entries = sorted(
        (_respell(key, choose), _respell(item, choose)) for key, item in value.items()
    )
    if len(entries) > 1 and choose([False, True]):
        entries.reverse()
    if entries and choose([False, True]):
        entries.append(entries[0])
    return _dict_of(*[part for entry in entries for part in entry])


class TestOneSpellingPerValue:
    """``canonical_encode(canonical_decode(b)) == b`` for every ``b`` that decodes.

    A second byte string for the same value would let a peer hand over a WAL
    frame, an exported log or a catch-up payload that decodes to an object
    whose re-encoding (hence digest, hence signature) is not the one it sent.
    """

    @pytest.mark.parametrize("payload", [b"007", b"+7", b" 7", b"1_0", b"-0"])
    def test_rejects_a_second_spelling_of_an_int(self, payload):
        with pytest.raises(ValueError):
            canonical_decode(_framed(b"I", payload))

    @pytest.mark.parametrize("payload", [b"1", b"1.00", b"1e0", b"Infinity"])
    def test_rejects_a_second_spelling_of_a_float(self, payload):
        with pytest.raises(ValueError):
            canonical_decode(_framed(b"D", payload))

    def test_the_one_spelling_is_accepted(self):
        assert canonical_decode(_framed(b"I", b"7")) == 7
        assert canonical_decode(_framed(b"I", b"-10")) == -10
        assert canonical_decode(_framed(b"D", b"1.0")) == 1.0
        assert canonical_decode(_framed(b"D", b"inf")) == float("inf")

    def test_rejects_dict_entries_out_of_order(self):
        a, b = canonical_encode("a"), canonical_encode("b")
        one, two = canonical_encode(1), canonical_encode(2)
        assert canonical_decode(_dict_of(a, one, b, two)) == {"a": 1, "b": 2}
        with pytest.raises(ValueError):
            canonical_decode(_dict_of(b, two, a, one))

    def test_rejects_a_repeated_dict_key(self):
        """It used to decode, silently, to the last value."""
        a = canonical_encode("a")
        with pytest.raises(ValueError):
            canonical_decode(_dict_of(a, canonical_encode(1), a, canonical_encode(2)))

    def test_rejects_dict_keys_that_are_equal_but_spelled_apart(self):
        """``1.0``, ``1`` and ``True`` are three encodings and one dict key."""
        keys = sorted(canonical_encode(key) for key in (1, 1.0, True))
        value = canonical_encode(None)
        for first in range(3):
            for second in range(first + 1, 3):
                with pytest.raises(ValueError):
                    canonical_decode(_dict_of(keys[first], value, keys[second], value))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_numeric_values, st.data())
    def test_a_respelled_encoding_that_still_decodes_re_encodes_to_itself(self, value, data):
        """Mutation at the level the format is ambiguous at: every number may be
        respelled and every dict reordered or given a repeated entry."""
        respelled = _respell(value, lambda options: data.draw(st.sampled_from(options)))
        try:
            decoded = canonical_decode(respelled)
        except ValueError:
            assert respelled != canonical_encode(value)  # only a liberty is refused
            return
        assert canonical_encode(decoded) == respelled

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_numeric_values, st.data())
    def test_a_damaged_encoding_that_still_decodes_re_encodes_to_itself(self, value, data):
        """Mutation at the byte level: set, drop or insert a few bytes."""
        encoded = bytearray(canonical_encode(value))
        for _ in range(data.draw(st.integers(1, 3), label="edits")):
            position = data.draw(st.integers(0, len(encoded) - 1), label="position")
            byte = data.draw(st.sampled_from(b"NTFIDSBLM019+-_ .e\x00\x01\x02"), label="byte")
            edit = data.draw(st.sampled_from(["set", "drop", "insert"]), label="edit")
            if edit == "set":
                encoded[position] = byte
            elif edit == "insert":
                encoded.insert(position, byte)
            elif len(encoded) > 1:
                del encoded[position]
        damaged = bytes(encoded)
        try:
            decoded = canonical_decode(damaged)
        except ValueError:
            return
        assert canonical_encode(decoded) == damaged


class TestDecodeAt:
    """The door for a reader that walks a declared layout and meets a value
    nothing was declared about: one value at an offset, and where it ends."""

    def test_it_reads_one_value_and_says_where_it_ends(self):
        from repro.common.encoding import decode_at

        first, second = canonical_encode({"a": [1, b"x"]}), canonical_encode("tail")
        data = b"\xff\xff" + first + second
        assert decode_at(data, 2) == ({"a": [1, b"x"]}, 2 + len(first))
        assert decode_at(data, 2 + len(first)) == ("tail", len(data))

    def test_it_refuses_what_canonical_decode_refuses(self):
        from repro.common.encoding import decode_at

        for hostile in (b"", b"S\x00\x00\x00\x09ab", b"I\x00\x00\x00\x03007", b"?"):
            with pytest.raises(ValueError):
                decode_at(b"N" + hostile, 1)
            with pytest.raises(ValueError):
                canonical_decode(hostile)


class TestNestingDeeperThanTheStack:
    def test_25_kb_of_list_headers_is_a_value_error(self):
        """The decoder's contract -- untrusted input raises ``ValueError`` --
        had a hole here: this raised ``RecursionError``."""
        with pytest.raises(ValueError, match="nests deeper"):
            canonical_decode(b"L\x00\x00\x00\x01" * 5000 + b"N")
        with pytest.raises(ValueError, match="nests deeper"):
            canonical_decode(b"M\x00\x00\x00\x01S\x00\x00\x00\x01k" * 5000 + b"N")

    def test_ordinary_nesting_still_decodes(self):
        value = None
        for _ in range(40):
            value = [value]
        assert canonical_decode(canonical_encode(value)) == value
