"""Tests for hashing utilities."""

from __future__ import annotations

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import (
    EMPTY_HASH,
    hash_concat,
    hash_object,
    hash_to_int,
    sha256,
)


class TestHashing:
    def test_sha256_matches_stdlib(self):
        assert sha256(b"fides") == hashlib.sha256(b"fides").digest()

    def test_empty_hash_constant(self):
        assert EMPTY_HASH == hashlib.sha256(b"").digest()

    def test_digest_size(self):
        assert len(sha256(b"x")) == 32

    def test_hash_concat_is_not_plain_concatenation(self):
        assert hash_concat(b"ab", b"c") != hash_concat(b"a", b"bc")

    def test_hash_object_equals_for_equal_objects(self):
        assert hash_object({"a": [1, 2]}) == hash_object({"a": [1, 2]})

    @settings(max_examples=30, deadline=None)
    @given(st.binary(max_size=64), st.integers(min_value=2, max_value=2**64))
    def test_hash_to_int_in_range_and_nonzero(self, data, modulus):
        value = hash_to_int(data, modulus)
        assert 1 <= value < max(modulus, 2)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.binary(max_size=16), min_size=1, max_size=5))
    def test_hash_concat_deterministic(self, parts):
        assert hash_concat(*parts) == hash_concat(*parts)
