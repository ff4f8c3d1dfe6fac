"""Tests for Lamport-style commit timestamps."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.timestamps import Timestamp, TimestampGenerator


class TestTimestamp:
    def test_total_order_by_counter_then_client(self):
        assert Timestamp(1, "a") < Timestamp(2, "a")
        assert Timestamp(2, "a") < Timestamp(2, "b")
        assert not Timestamp(2, "b") < Timestamp(2, "a")

    def test_equality_and_hash(self):
        assert Timestamp(3, "c") == Timestamp(3, "c")
        assert hash(Timestamp(3, "c")) == hash(Timestamp(3, "c"))
        assert Timestamp(3, "c") != Timestamp(3, "d")

    def test_negative_counter_rejected(self):
        with pytest.raises(ValueError):
            Timestamp(-1, "a")

    def test_advance_moves_past_observed(self):
        ts = Timestamp(5, "a")
        advanced = ts.advance(Timestamp(10, "b"))
        assert advanced.counter == 11
        assert advanced.client_id == "a"

    def test_advance_without_observation(self):
        assert Timestamp(5, "a").advance().counter == 6

    def test_str_contains_counter(self):
        assert "7" in str(Timestamp(7, "x"))

    def test_a_client_zero_follows_the_genesis_stamp(self):
        client_zero = Timestamp(0, "z")
        assert client_zero is not Timestamp.zero()
        assert Timestamp.zero() < client_zero < Timestamp(1, "")


class TestTimestampGenerator:
    def test_next_is_strictly_increasing(self):
        gen = TimestampGenerator("c1")
        stamps = [gen.next() for _ in range(10)]
        assert all(a < b for a, b in zip(stamps, stamps[1:]))

    def test_observe_jumps_ahead(self):
        gen = TimestampGenerator("c1")
        gen.next()
        gen.observe(Timestamp(100, "other"))
        assert gen.next().counter == 101

    def test_observe_never_moves_backwards(self):
        gen = TimestampGenerator("c1")
        gen.observe(Timestamp(50, "x"))
        gen.observe(Timestamp(10, "y"))
        assert gen.next().counter == 51

    def test_two_clients_never_collide(self):
        gen_a, gen_b = TimestampGenerator("a"), TimestampGenerator("b")
        stamps = {gen_a.next() for _ in range(20)} | {gen_b.next() for _ in range(20)}
        assert len(stamps) == 40

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=30))
    def test_generator_exceeds_everything_observed(self, observations):
        gen = TimestampGenerator("c")
        for counter in observations:
            gen.observe(Timestamp(counter, "other"))
        fresh = gen.next()
        assert all(fresh > Timestamp(counter, "other") for counter in observations)


class TestOnlyReadableStampsAreBuilt:
    """``True`` and ``2.0`` compare and hash like ``1`` and ``2``, but encode
    as a bool and a float, which no timestamp reader accepts back: such a
    stamp in a journal record made ``load()`` raise."""

    @pytest.mark.parametrize("counter", [True, False, 2.0, 0.0, "3", None])
    def test_a_counter_that_is_not_an_int_is_refused(self, counter):
        with pytest.raises(ValueError, match="counter must be an int"):
            Timestamp(counter, "c")

    @pytest.mark.parametrize("client_id", [b"c", None, 7, ("c",)])
    def test_a_client_id_that_is_not_a_str_is_refused(self, client_id):
        with pytest.raises(ValueError, match="client id must be a str"):
            Timestamp(1, client_id)


class TestOneGenesisStamp:
    def test_zero_is_one_object(self):
        assert Timestamp.zero() is Timestamp.zero()
        assert Timestamp.zero() == Timestamp(0, "")
