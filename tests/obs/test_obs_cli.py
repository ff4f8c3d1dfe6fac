"""The ``python -m repro.obs`` trace toolbox CLI."""

from __future__ import annotations

import json

import pytest

from repro.obs.__main__ import _load, main
from repro.obs.trace import Tracer


@pytest.fixture
def trace_paths(tmp_path):
    """One small trace exported as both JSONL and Chrome JSON."""
    tracer = Tracer(enabled=True)
    round_id = tracer.open_span("round-1", "round", "s0", 0.0, txns=["t1"])
    tracer.add_span("get_vote", "phase", "s0", 0.0, 0.4, parent=round_id)
    tracer.close_span(round_id, 1.0, status="committed")
    jsonl = tmp_path / "trace.jsonl"
    chrome = tmp_path / "trace.json"
    tracer.export_jsonl(jsonl)
    tracer.export_chrome(chrome)
    return tracer, jsonl, chrome


class TestSummarizeAndFingerprint:
    def test_summarize_reports_counts_and_attribution(self, trace_paths, capsys):
        _, jsonl, _ = trace_paths
        assert main(["summarize", str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert "get_vote" in out
        assert "fingerprint:" in out

    def test_fingerprint_matches_the_tracer(self, trace_paths, capsys):
        tracer, jsonl, _ = trace_paths
        assert main(["fingerprint", str(jsonl)]) == 0
        assert capsys.readouterr().out.strip() == tracer.fingerprint()


class TestValidate:
    def test_clean_trace_exits_zero(self, trace_paths, capsys):
        _, jsonl, chrome = trace_paths
        assert main(["validate", str(jsonl)]) == 0
        assert main(["validate", str(chrome)]) == 0
        assert "invariants hold" in capsys.readouterr().out

    def test_violating_trace_exits_one(self, tmp_path, capsys):
        tracer = Tracer(enabled=True)
        tracer.open_span("round-1", "round", "s0", 0.0)  # never closed
        path = tmp_path / "bad.jsonl"
        tracer.export_jsonl(path)
        assert main(["validate", str(path)]) == 1
        assert "never closed" in capsys.readouterr().err


class TestConvert:
    def test_jsonl_to_chrome_and_back_preserves_the_trace(
        self, trace_paths, tmp_path, capsys
    ):
        tracer, jsonl, _ = trace_paths
        chrome = tmp_path / "converted.json"
        back = tmp_path / "back.jsonl"
        assert main(["convert", str(jsonl), str(chrome), "--to", "chrome"]) == 0
        assert "traceEvents" in json.loads(chrome.read_text())
        assert main(["convert", str(chrome), str(back), "--to", "jsonl"]) == 0
        reloaded = _load(back)
        assert reloaded.span_count() == tracer.span_count()
        assert [s.name for s in reloaded.spans] == [s.name for s in tracer.spans]


class TestDiff:
    def test_identical_traces_match(self, trace_paths, tmp_path, capsys):
        tracer, jsonl, _ = trace_paths
        copy = tmp_path / "copy.jsonl"
        tracer.export_jsonl(copy)
        assert main(["diff", str(jsonl), str(copy)]) == 0
        assert "fingerprints match" in capsys.readouterr().out

    def test_differing_traces_exit_one(self, trace_paths, tmp_path, capsys):
        _, jsonl, _ = trace_paths
        other = Tracer(enabled=True)
        other.add_span("get_vote", "phase", "s0", 0.0, 0.9)
        other_path = tmp_path / "other.jsonl"
        other.export_jsonl(other_path)
        assert main(["diff", str(jsonl), str(other_path)]) == 1
        assert "DIFFER" in capsys.readouterr().out
