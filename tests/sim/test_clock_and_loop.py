"""Unit tests for the virtual clock and the recorded timeline."""

from __future__ import annotations

import tracemalloc

import pytest

from repro.common.errors import ProtocolInvariantError
from repro.sim import Timeline, VirtualClock


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


#: One record per argument of :meth:`Timeline.record`, in that order.
RECORDS = [
    (0.5, "phase_start", "s0", "block-1/get_vote", ""),
    (1.0, "message", "s1", "get_vote", "sender=s0"),
    (1.0, "block_end", "s0", "block-1", "status=committed"),
]


def fingerprint_of(records) -> str:
    timeline = Timeline()
    for record in records:
        timeline.record(*record)
    return timeline.fingerprint()


class TestTimeline:
    def test_horizon_tracks_latest_scheduled_time(self):
        timeline = Timeline()
        timeline.record(5.0, "a")
        timeline.record(1.0, "b")
        assert timeline.horizon == 5.0

    def test_negative_time_rejected(self):
        with pytest.raises(ProtocolInvariantError):
            Timeline().record(-1.0, "bad")

    def test_same_records_same_fingerprint(self):
        assert fingerprint_of(RECORDS) == fingerprint_of(list(RECORDS))

    @pytest.mark.parametrize("field", range(5))
    def test_every_field_is_fingerprinted(self, field):
        time, kind, resource, label, detail = RECORDS[1]
        changed = [time + 1e-9, kind + "x", resource + "x", label + "x", detail + "x"]
        record = list(RECORDS[1])
        record[field] = changed[field]
        altered = [RECORDS[0], tuple(record), RECORDS[2]]
        assert fingerprint_of(altered) != fingerprint_of(RECORDS)

    def test_record_order_is_fingerprinted(self):
        swapped = [RECORDS[0], RECORDS[2], RECORDS[1]]
        assert fingerprint_of(swapped) != fingerprint_of(RECORDS)

    def test_reading_the_fingerprint_does_not_disturb_it(self):
        timeline = Timeline()
        for record in RECORDS:
            timeline.fingerprint()
            timeline.record(*record)
        assert timeline.fingerprint() == fingerprint_of(RECORDS)

    def test_recording_keeps_no_events(self):
        timeline = Timeline()
        timeline.record(0.0, "warm", "s0", "block-0", "status=committed")
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for index in range(100_000):
                timeline.record(index * 1e-3, "phase_end", "s0", f"block-{index}/decision")
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 64 * 1024
