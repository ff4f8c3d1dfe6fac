"""Unit tests for the span tracer: recording, invariants, the JSONL export."""

from __future__ import annotations

import json

from repro.obs.trace import Span, Tracer


def _well_formed_tracer() -> Tracer:
    tracer = Tracer(enabled=True)
    round_id = tracer.open_span("round-1", "round", "s0", 0.0, txns=["t1", "t2"])
    tracer.add_span("get_vote", "phase", "s0", 0.0, 0.4, parent=round_id)
    tracer.add_span("rpc:GET_VOTE", "rpc", "s1", 0.0, 0.3, parent=round_id)
    tracer.instant("inject:crash", "fault-inject", "s2", 0.2)
    tracer.close_span(round_id, 1.0, status="committed")
    return tracer


class TestDisabledTracerIsInert:
    def test_every_recorder_is_a_no_op(self):
        tracer = Tracer(enabled=False)
        assert tracer.begin_process() == 0
        assert tracer.open_span("r", "round", "s0", 0.0) is None
        assert tracer.add_span("p", "phase", "s0", 0.0, 1.0) is None
        assert tracer.instant("i", "event", "s0", 0.5) is None
        tracer.close_span(None, 1.0)
        assert tracer.spans == []

    def test_close_of_unknown_span_is_ignored(self):
        tracer = Tracer(enabled=True)
        tracer.close_span(999, 1.0)
        assert tracer.spans == []


class TestRecording:
    def test_open_close_sets_window_and_status(self):
        tracer = Tracer(enabled=True)
        span_id = tracer.open_span("round-0", "round", "s0", 0.25)
        tracer.close_span(span_id, 0.75, status="committed", blocks=1)
        (span,) = tracer.spans
        assert (span.start, span.end) == (0.25, 0.75)
        assert span.status == "committed"
        assert span.attrs["blocks"] == 1

    def test_round_close_fans_out_txn_children(self):
        tracer = _well_formed_tracer()
        children = [s for s in tracer.spans if s.category == "txn"]
        assert [s.name for s in children] == ["txn:t1", "txn:t2"]
        round_span = tracer.spans[0]
        for child in children:
            assert child.parent == round_span.span_id
            assert (child.start, child.end) == (round_span.start, round_span.end)
            assert child.status == "committed"

    def test_instants_are_zero_width(self):
        tracer = _well_formed_tracer()
        (instant,) = [s for s in tracer.spans if s.kind == "instant"]
        assert instant.start == instant.end == 0.2

    def test_opened_spans_and_instants_are_roots(self):
        tracer = Tracer(enabled=True)
        round_id = tracer.open_span("round-1", "round", "s0", 0.0)
        tracer.instant("inject:crash", "fault-inject", "s1", 0.2)
        tracer.open_span("round-2", "round", "s0", 0.1)
        assert [s.parent for s in tracer.spans] == [None, None, None]
        assert round_id == tracer.spans[0].span_id

    def test_begin_process_partitions_spans(self):
        tracer = Tracer(enabled=True)
        first = tracer.begin_process()
        tracer.add_span("p", "phase", "s0", 0.0, 1.0)
        second = tracer.begin_process()
        tracer.add_span("p", "phase", "s0", 0.0, 1.0)
        assert first != second
        assert [s.pid for s in tracer.spans] == [first, second]


class TestInvariants:
    def test_well_formed_trace_has_no_violations(self):
        assert _well_formed_tracer().check_invariants() == []

    def test_unclosed_span_is_flagged(self):
        tracer = Tracer(enabled=True)
        tracer.open_span("round-0", "round", "s0", 0.0)
        problems = tracer.check_invariants()
        assert len(problems) == 1
        assert "never closed" in problems[0]

    def test_child_escaping_parent_window_is_flagged(self):
        tracer = Tracer(enabled=True)
        parent = tracer.add_span("round-0", "round", "s0", 0.0, 1.0)
        tracer.add_span("get_vote", "phase", "s0", 0.5, 1.5, parent=parent)
        problems = tracer.check_invariants()
        assert len(problems) == 1
        assert "escapes parent" in problems[0]

    def test_unknown_parent_is_flagged(self):
        tracer = Tracer(enabled=True)
        tracer.add_span("get_vote", "phase", "s0", 0.0, 1.0, parent=42)
        problems = tracer.check_invariants()
        assert len(problems) == 1
        assert "unknown parent" in problems[0]

    def test_backwards_window_is_flagged(self):
        tracer = Tracer(enabled=True)
        tracer.add_span("get_vote", "phase", "s0", 1.0, 0.5)
        problems = tracer.check_invariants()
        assert len(problems) == 1
        assert "ends before it starts" in problems[0]


class TestAnalysis:
    def test_coverage_of_union_of_windows(self):
        tracer = Tracer(enabled=True)
        tracer.add_span("a", "round", "s0", 0.0, 0.4)
        tracer.add_span("b", "round", "s0", 0.2, 0.6)  # overlap is not double-counted
        assert abs(tracer.coverage(1.0) - 0.6) < 1e-12
        assert tracer.coverage(0.0) == 1.0

    def test_makespan_is_latest_span_end(self):
        tracer = Tracer(enabled=True)
        assert tracer.makespan() is None
        tracer.add_span("a", "round", "s0", 0.0, 0.4)
        tracer.add_span("b", "round", "s0", 0.2, 0.6)
        tracer.instant("inject:crash", "fault-inject", "s0", 9.0)  # instants excluded
        assert tracer.makespan() == 0.6

    def test_phase_attribution_sums_phase_and_delivery_spans_only(self):
        tracer = Tracer(enabled=True)
        tracer.add_span("round-0", "round", "s0", 0.0, 1.0)
        tracer.add_span("get_vote", "phase", "s0", 0.0, 0.3)
        tracer.add_span("get_vote", "phase", "s0", 0.5, 0.7)
        tracer.add_span("order", "delivery", "ordsvc", 0.7, 1.0)
        attribution = tracer.phase_attribution()
        assert set(attribution) == {"get_vote", "order"}
        assert abs(attribution["get_vote"] - 0.5) < 1e-12
        assert abs(attribution["order"] - 0.3) < 1e-12

    def test_span_count_by_category(self):
        tracer = _well_formed_tracer()
        assert tracer.span_count("phase") == 1
        assert tracer.span_count("txn") == 2
        assert tracer.span_count() == len(tracer.spans)


class TestFingerprint:
    def test_identical_traces_agree(self):
        assert _well_formed_tracer().fingerprint() == _well_formed_tracer().fingerprint()

    def test_structural_change_alters_the_fingerprint(self):
        changed = _well_formed_tracer()
        changed.add_span("extra", "phase", "s0", 0.0, 0.1)
        assert changed.fingerprint() != _well_formed_tracer().fingerprint()

    def test_attrs_are_excluded_from_the_fingerprint(self):
        noisy = Tracer(enabled=True)
        quiet = Tracer(enabled=True)
        noisy.add_span("get_vote", "phase", "s0", 0.0, 0.5, mht_wall_s=0.123)
        quiet.add_span("get_vote", "phase", "s0", 0.0, 0.5, mht_wall_s=0.456)
        assert noisy.fingerprint() == quiet.fingerprint()


class TestExports:
    def test_jsonl_round_trip_is_exact(self, tmp_path):
        tracer = _well_formed_tracer()
        path = tmp_path / "trace.jsonl"
        tracer.export_jsonl(path)
        loaded = Tracer.from_records(json.loads(line) for line in path.read_text().splitlines())
        assert loaded.fingerprint() == tracer.fingerprint()
        assert [s.to_wire() for s in loaded.spans] == [
            s.to_wire() for s in tracer.spans
        ]
        assert loaded.check_invariants() == []

    def test_span_wire_round_trip(self):
        span = Span(
            span_id=3,
            parent=1,
            kind="span",
            name="challenge",
            category="phase",
            resource="s1",
            pid=2,
            start=0.125,
            end=0.25,
            status="committed",
            attrs={"view": 1},
        )
        assert Span.from_wire(span.to_wire()) == span
