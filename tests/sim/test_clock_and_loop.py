"""Unit tests for the virtual clock and its high-water mark (the makespan)."""

from __future__ import annotations

import pytest

from repro.common.errors import ProtocolInvariantError
from repro.sim import VirtualClock


class TestVirtualClock:
    def test_starts_at_zero_and_advances(self):
        clock = VirtualClock()
        assert clock.now == 0.0
        assert clock.advance(1.5) == 1.5
        assert clock.now == 1.5

    def test_set_may_jump_backwards(self):
        # Scheduling another resource's earlier activity legitimately moves
        # the "current activity time" backwards (see the module docstring).
        clock = VirtualClock(start=10.0)
        clock.set(2.0)
        assert clock.now == 2.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ProtocolInvariantError):
            VirtualClock().advance(-0.1)


class TestHighWaterMark:
    def test_is_the_maximum_of_every_set_and_advance(self):
        clock = VirtualClock()
        clock.set(5.0)
        clock.set(1.0)
        assert clock.advance(2.0) == 3.0
        assert clock.high_water == 5.0
        clock.advance(4.0)
        assert clock.high_water == 7.0

    def test_a_backwards_set_does_not_lower_it(self):
        clock = VirtualClock(start=10.0)
        clock.set(2.0)
        assert (clock.now, clock.high_water) == (2.0, 10.0)

    def test_negative_time_rejected(self):
        clock = VirtualClock()
        with pytest.raises(ProtocolInvariantError):
            clock.set(-1.0)
        assert (clock.now, clock.high_water) == (0.0, 0.0)
