"""Tests for the canonical report schema and the bench CLI's exit codes."""

from __future__ import annotations

import json

import pytest

from repro.bench.schema import SCHEMA_VERSION, canonical_report, summarize_rows


def classic_rows():
    return [
        {
            "label": "point-a",
            "throughput (txns/s)": 100.0,
            "txn latency (ms)": 2.0,
            "txn p50 (ms)": 1.5,
            "txn p95 (ms)": 3.0,
            "txn p99 (ms)": 4.0,
        },
        {
            "label": "point-b",
            "throughput (txns/s)": 200.0,
            "txn latency (ms)": 1.0,
            "txn p50 (ms)": 0.8,
            "txn p95 (ms)": 1.6,
            "txn p99 (ms)": 2.0,
        },
    ]


class TestSchema:
    def test_summarize_normalises_classic_rows(self):
        metrics = summarize_rows(classic_rows())
        assert metrics["labels"]["point-a"]["throughput_tps"] == 100.0
        assert metrics["throughput_tps"] == {"mean": 150.0, "min": 100.0}
        assert metrics["latency_ms"]["p50"] == pytest.approx(1.15)
        assert metrics["latency_ms"]["p95"] == pytest.approx(2.3)

    def test_summarize_handles_partial_rows(self):
        rows = [
            {"label": "scaled", "throughput (txns/s)": 50.0, "txn latency (ms)": 3.0},
            {"label": "pipe", "throughput (txns/s)": 75.0},
            {"label": "recover", "recover (ms)": 12.0},
            {"label": "matrix", "detected": True},  # no metrics at all
        ]
        metrics = summarize_rows(rows)
        assert metrics["labels"]["scaled"]["throughput_tps"] == 50.0
        assert metrics["labels"]["pipe"]["throughput_tps"] == 75.0
        assert metrics["labels"]["recover"] == {"throughput_tps": None, "latency_ms": 12.0}
        assert "matrix" not in metrics["labels"]

    def test_canonical_report_shape(self):
        report = canonical_report("figure13", classic_rows(), config={"num_requests": 24})
        assert set(report) == {"schema_version", "sweep", "commit", "config", "rows", "metrics"}
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["sweep"] == "figure13"
        assert isinstance(report["commit"], str) and report["commit"]
        assert report["config"] == {"num_requests": 24}
        assert report["metrics"] == summarize_rows(classic_rows())


class TestBenchCliExitCodes:
    def test_empty_sweep_fails(self, capsys, monkeypatch):
        from repro.bench import __main__ as cli

        monkeypatch.setattr(cli, "run_sweep", lambda name, **kwargs: ([], []))
        assert cli.main(["figure12"]) == 1
        assert "no result rows" in capsys.readouterr().err

    def test_raising_sweep_fails(self, capsys, monkeypatch):
        # The CLI catches the library's own error family (plus OSError);
        # anything else is a programming bug and propagates loudly.
        from repro.bench import __main__ as cli
        from repro.common.errors import StorageError

        def boom(name, **kwargs):
            raise StorageError("sweep exploded")

        monkeypatch.setattr(cli, "run_sweep", boom)
        assert cli.main(["figure12"]) == 1
        assert "raised" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            # Both used to run and exit 0: rows with 0 committed and 0.0 txns/s, or
            # a full-size grid, since figure13 lifts each point to its batch size.
            ["ablation-latency", "--requests", "0"],
            ["figure13", "--requests", "-3"],
        ],
    )
    def test_requests_below_one_is_a_usage_error(self, argv, capsys, tmp_path):
        from repro.bench import __main__ as cli

        report = tmp_path / "report.json"
        assert cli.main([*argv, "--json", str(report)]) == 2
        assert "--requests" in capsys.readouterr().err
        assert not report.exists()

    def test_fixed_compute_flag_rejected_for_unsupported_sweep(self, capsys):
        from repro.bench.__main__ import main

        assert main(["recovery", "--fixed-compute-ms", "1"]) == 2
        assert "--fixed-compute-ms" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            # No smoke grid: the full sweep used to run, the flag silently dropped.
            (["figure13", "--smoke"], "--smoke"),
            (["ablation-signing", "--smoke"], "--smoke"),
            (["figure13", "--trace", "unwritten.json"], "--trace"),
            (["recovery", "--smoke", "--metrics", "unwritten.json"], "--metrics"),
        ],
    )
    def test_flag_refused_by_a_sweep_that_does_not_declare_it(self, argv, flag, capsys, tmp_path):
        from repro.bench import __main__ as cli

        report = tmp_path / "report.json"
        assert cli.main([*argv, "--json", str(report)]) == 2
        err = capsys.readouterr().err
        assert argv[0] in err and flag in err
        assert not report.exists()

    def test_fixed_compute_runs_are_reproducible(self, tmp_path):
        from repro.bench.__main__ import main

        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert (
                main(
                    [
                        "multiclient",
                        "--requests",
                        "8",
                        "--fixed-compute-ms",
                        "1",
                        "--json",
                        str(path),
                    ]
                )
                == 0
            )
        reports = [json.loads(path.read_text()) for path in paths]
        assert reports[0]["metrics"]["labels"] == reports[1]["metrics"]["labels"]
