"""Tests for the canonical report schema and the benchmark regression gate."""

from __future__ import annotations

import json

import pytest

from repro.bench.gate import build_baseline, compare
from repro.bench.gate import main as gate_main
from repro.bench.schema import canonical_report, summarize_rows, validate_report


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

    def test_canonical_report_shape_and_validation(self):
        report = canonical_report("figure13", classic_rows(), config={"num_requests": 24})
        assert validate_report(report) == []
        assert report["sweep"] == "figure13"
        assert isinstance(report["commit"], str) and report["commit"]
        assert report["config"] == {"num_requests": 24}
        broken = dict(report)
        del broken["metrics"]
        broken["schema_version"] = 99
        assert len(validate_report(broken)) == 2


class TestGate:
    def make_reports(self, tps=100.0):
        rows = [
            {"label": "point-a", "throughput (txns/s)": tps},
            {"label": "point-b", "throughput (txns/s)": 2 * tps},
        ]
        return [canonical_report("sweep-x", rows, config={"num_requests": 8})]

    def test_identical_reports_pass(self):
        reports = self.make_reports()
        baseline = build_baseline(reports, tolerance=0.25)
        comparison = compare(baseline, reports, tolerance=0.25)
        assert comparison["passed"]
        assert [row["status"] for row in comparison["rows"]] == ["ok", "ok"]

    def test_regression_beyond_tolerance_fails(self):
        baseline = build_baseline(self.make_reports(tps=100.0), tolerance=0.25)
        comparison = compare(baseline, self.make_reports(tps=70.0), tolerance=0.25)
        assert not comparison["passed"]
        assert any("fell more than" in failure for failure in comparison["failures"])

    def test_small_dip_within_tolerance_passes(self):
        baseline = build_baseline(self.make_reports(tps=100.0), tolerance=0.25)
        comparison = compare(baseline, self.make_reports(tps=90.0), tolerance=0.25)
        assert comparison["passed"]

    def test_improvement_passes_with_note(self):
        baseline = build_baseline(self.make_reports(tps=100.0), tolerance=0.25)
        comparison = compare(baseline, self.make_reports(tps=200.0), tolerance=0.25)
        assert comparison["passed"]
        assert comparison["improvements"]

    def test_missing_sweep_or_label_fails(self):
        reports = self.make_reports()
        baseline = build_baseline(reports, tolerance=0.25)
        comparison = compare(baseline, [], tolerance=0.25)
        assert not comparison["passed"]
        shrunk = self.make_reports()
        shrunk[0]["metrics"]["labels"].pop("point-b")
        comparison = compare(baseline, shrunk, tolerance=0.25)
        assert any("label missing" in failure for failure in comparison["failures"])

    def test_config_drift_fails(self):
        reports = self.make_reports()
        baseline = build_baseline(reports, tolerance=0.25)
        drifted = self.make_reports()
        drifted[0]["config"] = {"num_requests": 999}
        comparison = compare(baseline, drifted, tolerance=0.25)
        assert not comparison["passed"]
        assert any("differs from the baseline" in failure for failure in comparison["failures"])

    def test_cli_update_then_compare_round_trip(self, tmp_path):
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(self.make_reports()[0]))
        baseline_path = tmp_path / "baseline.json"
        output_path = tmp_path / "comparison.json"
        assert gate_main(["--baseline", str(baseline_path), "--update", str(report_path)]) == 0
        assert (
            gate_main(
                [
                    "--baseline",
                    str(baseline_path),
                    "--output",
                    str(output_path),
                    str(report_path),
                ]
            )
            == 0
        )
        comparison = json.loads(output_path.read_text())
        assert comparison["passed"] is True

    def test_cli_fails_on_regression(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        good = tmp_path / "good.json"
        good.write_text(json.dumps(self.make_reports(tps=100.0)[0]))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(self.make_reports(tps=10.0)[0]))
        assert gate_main(["--baseline", str(baseline_path), "--update", str(good)]) == 0
        assert gate_main(["--baseline", str(baseline_path), str(bad)]) == 1

    def test_cli_rejects_non_canonical_report(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"rows": []}))
        baseline_path = tmp_path / "baseline.json"
        assert gate_main(["--baseline", str(baseline_path), str(bogus)]) == 2


class TestBenchCliExitCodes:
    def test_empty_sweep_fails(self, capsys, monkeypatch):
        from repro.bench import __main__ as cli

        monkeypatch.setattr(cli, "run_sweep", lambda name, **kwargs: [])
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
