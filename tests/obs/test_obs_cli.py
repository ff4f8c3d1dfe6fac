"""The ``python -m repro.obs`` trace toolbox CLI."""

from __future__ import annotations

import pytest

from repro.obs.__main__ import main
from repro.obs.trace import Tracer


@pytest.fixture
def trace_paths(tmp_path):
    """One small trace and its JSONL export."""
    tracer = Tracer(enabled=True)
    round_id = tracer.open_span("round-1", "round", "s0", 0.0, txns=["t1"])
    tracer.add_span("get_vote", "phase", "s0", 0.0, 0.4, parent=round_id)
    tracer.close_span(round_id, 1.0, status="committed")
    jsonl = tmp_path / "trace.jsonl"
    tracer.export_jsonl(jsonl)
    return tracer, jsonl


class TestSummarizeAndFingerprint:
    def test_summarize_reports_counts_and_attribution(self, trace_paths, capsys):
        _, jsonl = trace_paths
        assert main(["summarize", str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert "get_vote" in out
        assert "fingerprint:" in out

    def test_fingerprint_matches_the_tracer(self, trace_paths, capsys):
        tracer, jsonl = trace_paths
        assert main(["fingerprint", str(jsonl)]) == 0
        assert capsys.readouterr().out.strip() == tracer.fingerprint()

    def test_blank_lines_between_records_are_skipped(self, trace_paths, tmp_path, capsys):
        tracer, jsonl = trace_paths
        spaced = tmp_path / "spaced.jsonl"
        spaced.write_text("\n" + "\n\n".join(jsonl.read_text().splitlines()) + "\n  \n")
        assert main(["fingerprint", str(spaced)]) == 0
        assert capsys.readouterr().out.strip() == tracer.fingerprint()


class TestValidate:
    def test_clean_trace_exits_zero(self, trace_paths, capsys):
        _, jsonl = trace_paths
        assert main(["validate", str(jsonl)]) == 0
        assert "invariants hold" in capsys.readouterr().out

    def test_violating_trace_exits_one(self, tmp_path, capsys):
        tracer = Tracer(enabled=True)
        tracer.open_span("round-1", "round", "s0", 0.0)  # never closed
        path = tmp_path / "bad.jsonl"
        tracer.export_jsonl(path)
        assert main(["validate", str(path)]) == 1
        assert "never closed" in capsys.readouterr().err


class TestDiff:
    def test_identical_traces_match(self, trace_paths, tmp_path, capsys):
        tracer, jsonl = trace_paths
        copy = tmp_path / "copy.jsonl"
        tracer.export_jsonl(copy)
        assert main(["diff", str(jsonl), str(copy)]) == 0
        assert "fingerprints match" in capsys.readouterr().out

    def test_differing_traces_exit_one(self, trace_paths, tmp_path, capsys):
        _, jsonl = trace_paths
        other = Tracer(enabled=True)
        other.add_span("get_vote", "phase", "s0", 0.0, 0.9)
        other_path = tmp_path / "other.jsonl"
        other.export_jsonl(other_path)
        assert main(["diff", str(jsonl), str(other_path)]) == 1
        assert "DIFFER" in capsys.readouterr().out
