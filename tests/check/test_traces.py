"""Committed counterexample traces replay exactly as recorded.

Every ``*.json`` under ``tests/check/traces/`` is a minimized counterexample
the checker once found (or a clean witness schedule).  Replaying them here
turns each historical bug into a permanent regression test: a violation
trace must still reproduce its recorded invariant violations with its
mutations enabled, and must run clean with them disabled (proving the bug
is the re-introduced mutation, not the live code).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.check.replay import Trace, assert_trace, load_trace, replay, save_trace

TRACES = sorted((Path(__file__).parent / "traces").glob("*.json"))


def test_trace_directory_is_not_empty():
    assert TRACES, "expected committed traces under tests/check/traces/"


@pytest.mark.parametrize("path", TRACES, ids=lambda p: p.stem)
def test_committed_trace_replays(path):
    assert_trace(path)


class TestTraceFormat:
    def test_round_trip_through_disk(self, tmp_path):
        trace = Trace(
            scenario="classic-crash",
            choices=[0, 1],
            invariants=["agreement"],
            mutations=["pr3-round-failed-leak"],
            description="synthetic",
        )
        path = save_trace(trace, tmp_path / "t.json")
        assert load_trace(path) == trace

    def test_unknown_version_is_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"version": 999, "scenario": "x", "choices": []}')
        with pytest.raises(ValueError, match="version"):
            load_trace(path)

    def test_unknown_mutation_is_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(
            '{"version": 1, "scenario": "classic-crash", "choices": [],'
            ' "mutations": ["no-such-bug"]}'
        )
        with pytest.raises(ValueError, match="no-such-bug"):
            load_trace(path)

    def test_clean_witness_trace_passes(self):
        trace = Trace(scenario="classic-byzantine", choices=[], expect="clean")
        _, violations = replay(trace)
        assert violations == []
