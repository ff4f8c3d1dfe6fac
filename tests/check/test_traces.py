"""Committed counterexample traces replay exactly as recorded.

Every ``*.json`` under ``tests/check/traces/`` is a minimized counterexample
the checker once found (or a clean witness schedule).  Replaying them here
turns each historical bug into a permanent regression test: a violation
trace must still reproduce its recorded invariant violations with its
mutations enabled, and must run clean with them disabled (proving the bug
is the re-introduced mutation, not the live code).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.check.replay import Trace, save_trace

from trace_replay import assert_trace, load_trace, replay

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

    @pytest.mark.parametrize(
        "fields, named",
        [
            ({"scenario": "no-such-scenario", "invariants": ["agreement"]}, "no-such-scenario"),
            ({"invariants": ["agreemnet"]}, "agreemnet"),
            ({"invariants": ["agreement"], "expect": "clena"}, "clena"),
            ({"expect": "violation"}, "names no invariant"),
            ({}, "names no invariant"),
        ],
        ids=["scenario", "invariant", "expect", "no-invariant", "no-invariant-by-default"],
    )
    def test_a_trace_that_cannot_assert_what_it_claims_is_rejected(
        self, tmp_path, fields, named
    ):
        path = tmp_path / "t.json"
        path.write_text(
            json.dumps({"version": 1, "scenario": "classic-crash", "choices": [], **fields})
        )
        with pytest.raises(ValueError, match=named) as error:
            load_trace(path)
        assert str(path) in str(error.value)

    def test_a_clean_trace_needs_no_invariant(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(
            '{"version": 1, "scenario": "classic-byzantine", "choices": [], "expect": "clean"}'
        )
        assert load_trace(path).expect == "clean"

    def test_clean_witness_trace_passes(self):
        trace = Trace(scenario="classic-byzantine", choices=[], expect="clean")
        _, violations = replay(trace)
        assert violations == []
